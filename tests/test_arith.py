"""Elementary arithmetic layer: factorization, symbols, Ramanujan sums."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincong import arith, cli
from lincong.errors import ConsistencyError, DomainError

# the ramanujan mode's oracle: sum over d | gcd(n, b) of mu(n/d)*d for every b
divisor_form = cli.ramanujan_divisor_form


def unit_sum(n, b):
    """C_n(b) summed literally: e(j*b/n) over the units j in [1, n]."""
    return sum(
        cmath.exp(2j * cmath.pi * (j * b % n) / n) for j in range(1, n + 1) if math.gcd(j, n) == 1
    )


def test_factorize_examples():
    assert arith.factorize(1).factors == ()
    assert arith.factorize(27).factors == ((3, 3),)
    assert arith.factorize(675).factors == ((3, 3), (5, 2))


def test_factorize_multiplies_back_and_is_prime():
    for n in range(1, 2000):
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac.factors) == n
        for p, _ in fac.factors:
            assert arith.is_prime(p)


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        arith.factorize(0)


def test_arith_caches_stay_bounded():
    cached = (arith.factorize, arith.divisors, arith._ramanujan_of_gcd)
    for fn in cached:
        assert fn.cache_info().maxsize == arith.CACHE_SIZE
    for n in range(1, 3 * arith.CACHE_SIZE):
        arith.divisors(n)
        arith.ramanujan_sum(n, 6)
    for fn in cached:
        assert 0 < fn.cache_info().currsize <= arith.CACHE_SIZE
    assert arith.factorize(720720).factors == ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))


def test_bad_factorization_rejected():
    with pytest.raises(DomainError):
        arith.Factorization(12, ((2, 1), (3, 1)))
    with pytest.raises(DomainError):
        arith.Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(DomainError):
        arith.Factorization(16, ((4, 2),))
    with pytest.raises(DomainError):
        arith.Factorization(4, ((2, 0), (2, 2)))
    with pytest.raises(DomainError):
        arith.Factorization(0, ())
    assert arith.Factorization(1, ()) == arith.factorize(1)


def test_euler_phi():
    assert arith.euler_phi(1) == 1
    # phi(9): count units 1..9 by brute force
    assert arith.euler_phi(9) == sum(1 for x in range(1, 10) if math.gcd(x, 9) == 1) == 6
    assert arith.euler_phi(arith.factorize(675)) == 360


def test_moebius():
    assert arith.moebius(1) == 1
    assert arith.moebius(6) == 1
    assert arith.moebius(9) == 0
    assert arith.moebius(30) == -1


@pytest.mark.parametrize("p", [p for p in range(3, 100, 2) if arith.is_prime(p)])
def test_jacobi_matches_euler_criterion(p):
    for a in range(p):
        euler = pow(a, (p - 1) // 2, p)
        expected = 0 if euler == 0 else (1 if euler == 1 else -1)
        assert arith.jacobi_symbol(a, p) == expected


def test_jacobi_examples():
    assert all(arith.jacobi_symbol(1, n) == 1 for n in range(1, 60, 2))
    assert arith.jacobi_symbol(3, 3) == 0
    assert arith.jacobi_symbol(2, 7) == 1  # 3^2 = 9 = 2 (mod 7)
    with pytest.raises(DomainError):
        arith.jacobi_symbol(3, 10)


def test_epsilon():
    assert arith.epsilon(5) == 1
    assert arith.epsilon(3) == 1j
    assert arith.epsilon(1) == 1
    with pytest.raises(DomainError):
        arith.epsilon(4)


@given(st.integers(-50, 50), st.integers(1, 60))
def test_root_of_unity_on_unit_circle(num, den):
    z = arith.root_of_unity(num, den)
    assert abs(abs(z) - 1.0) < 1e-12


def test_root_of_unity_examples():
    assert arith.root_of_unity(0, 5) == 1
    assert abs(arith.root_of_unity(1, 2) + 1) < 1e-12
    assert abs(arith.root_of_unity(1, 4) - 1j) < 1e-12


def test_round_complex_to_int():
    value, resid = arith.round_complex_to_int(3.0000000001 + 1e-12j)
    assert value == 3 and resid < 1e-6
    with pytest.raises(ConsistencyError):
        arith.round_complex_to_int(2.5 + 0j)
    with pytest.raises(ConsistencyError):
        arith.round_complex_to_int(complex(float("nan"), 0.0))


def test_ramanujan_direct_examples():
    assert divisor_form(1) == [1]
    assert divisor_form(6)[1] == 1  # e(1/6)+e(5/6) = 2cos(pi/3)
    assert divisor_form(9)[3] == -3


def test_ramanujan_holder_examples():
    for p in (3, 5, 7, 11):
        for b in range(1, p):
            assert arith.ramanujan_sum(p, b) == -1
        assert arith.ramanujan_sum(p, p) == p - 1
    assert arith.ramanujan_sum(9, 3) == -3


def test_holder_equals_direct():
    for n in range(1, 101):
        for b in range(n):
            assert abs(arith.ramanujan_sum(n, b) - unit_sum(n, b)) < 1e-6, (n, b)


def test_ramanujan_multiplicative():
    for n1 in range(1, 51):
        for n2 in range(n1, 51):
            if math.gcd(n1, n2) != 1:
                continue
            for b in range(n1 * n2):
                assert arith.ramanujan_sum(n1 * n2, b) == arith.ramanujan_sum(
                    n1, b
                ) * arith.ramanujan_sum(n2, b)


def test_ramanujan_even_in_b():
    for n in range(1, 101):
        for b in range(n):
            assert arith.ramanujan_sum(n, b) == arith.ramanujan_sum(n, math.gcd(b, n))


@settings(max_examples=200)
@given(st.integers(1, 120), st.integers(-240, 240))
def test_ramanujan_integer_valued(n, b):
    # the divisor form, Hoelder's form and the literal sum agree for any input
    value = divisor_form(n)[b % n]
    assert value == arith.ramanujan_sum(n, b)
    assert abs(unit_sum(n, b) - value) < 1e-6


def test_divisors():
    assert arith.divisors(1) == (1,)
    assert arith.divisors(12) == (1, 2, 3, 4, 6, 12)
    assert arith.divisors(27) == (1, 3, 9, 27)
