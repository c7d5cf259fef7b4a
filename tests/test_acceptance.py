"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and bound is pinned here; nothing is deferred.
"""

import cmath
import itertools
import math
import subprocess
import sys
import time

import pytest

from lincong import arith, characters, cli, formulas, oracles
from lincong.errors import BudgetExceededError, ConsistencyError
from lincong.model import BlockSpec, CongruenceSpec, OracleBudget

PASS = "ACCEPTANCE {num} ({name}): PASS ({detail})"


def report(num, name, detail):
    print(PASS.format(num=num, name=name, detail=detail))


def e(num, den):
    """e(num/den) = exp(2*pi*i*num/den)."""
    return cmath.exp(2j * cmath.pi * (num % den) / den)


def test_01_paper_golden_values():
    t0 = time.perf_counter()
    assert formulas.square_count(CongruenceSpec(27, (1, 1), 1)).count == 4
    witnesses = oracles.oracle_solutions(CongruenceSpec(27, (1, 1), 1), "square")
    assert set(witnesses) == {(1, 0), (0, 1), (9, 19), (19, 9)}
    assert formulas.square_count(CongruenceSpec(9, (1, 1), 3)).count == 0
    assert formulas.square_count(CongruenceSpec(9, (1, 1), 2)).count == 3
    assert 3 == 3 * (3 + 1) // 4
    assert oracles.oracle_count(CongruenceSpec(9, (1, 1), 2), "square") == 3
    assert formulas.order_blocks_count(BlockSpec(6, ((2, 2), (2, 3)), 5)).count == 63
    assert formulas.order_blocks_count(BlockSpec(4, ((2, 1), (2, 3)), 1)).count == 24
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden values took {elapsed:.3f}s (budget 1s)"
    report(1, "paper golden values", f"{elapsed * 1000:.0f} ms")


def test_02_strict_order_full_sweep():
    t0 = time.perf_counter()
    cases = 0
    for n in range(1, 26):
        for k in range(1, 6):
            for a in range(n):
                hist = oracles.oracle_histogram(
                    CongruenceSpec(n, (a,) * k, 0), "strict-order"
                )
                for b in range(n):
                    got = formulas.strict_order_count(n, k, a, b)
                    assert got.count == hist[b], (n, k, a, b, got.count, hist[b])
                    cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"strict sweep took {elapsed:.1f}s (budget 120s)"
    report(2, "strict-order sweep n<=25 k<=5", f"{cases} cases, {elapsed:.1f}s")


def test_03_square_count_full_sweep():
    t0 = time.perf_counter()
    cases = 0
    worst = 0.0
    for n in (3, 5, 7, 9, 15, 25, 27, 45, 135):
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement((1, 2, 3, 5), k):
                hist = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "square")
                for b in range(n):
                    got = formulas.square_count(CongruenceSpec(n, coeffs, b))
                    assert got.count == hist[b], (n, coeffs, b)
                    worst = max(worst, got.residual)
                    cases += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 600.0, f"square sweep took {elapsed:.1f}s (budget 600s)"
    report(3, "square-count sweep", f"{cases} cases, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_04_blocks_full_sweep():
    t0 = time.perf_counter()
    pairs = [(size, coeff) for size in (1, 2, 3) for coeff in (1, 2, 3)]
    cases = 0
    mixed = 0
    for n in range(1, 13):
        for t in (1, 2, 3):
            for blocks in itertools.combinations_with_replacement(pairs, t):
                hist = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks")
                gcds = {math.gcd(a, n) for _, a in blocks}
                if len(gcds) > 1:
                    mixed += 1
                for b in range(n):
                    got = formulas.order_blocks_count(BlockSpec(n, blocks, b))
                    assert got.count == hist[b], (n, blocks, b, got.count, hist[b])
                    cases += 1
    elapsed = time.perf_counter() - t0
    assert mixed > 0, "grid must exercise the mixed-gcd general path"
    report(4, "block-order sweep n<=12", f"{cases} cases ({mixed} mixed-gcd configs), {elapsed:.1f}s")


def test_05_degenerate_blocks_match_unrestricted():
    t0 = time.perf_counter()
    cases = 0
    for n in range(1, 31):
        for k in range(1, 5):
            for coeffs in itertools.combinations_with_replacement((1, 2, 3, 4, 5, 7), k):
                blocks = tuple((1, a) for a in coeffs)
                gcds = {math.gcd(a, n) for a in coeffs}
                for b in range(n):
                    got = formulas.order_blocks_count(BlockSpec(n, blocks, b)).count
                    ref = formulas.lehmer_count(CongruenceSpec(n, coeffs, b)).count
                    assert got == ref, (n, coeffs, b)
                    if len(gcds) == 1:
                        f = next(iter(gcds))
                        expected = f * n ** (k - 1) if b % f == 0 else 0
                        assert got == expected, (n, coeffs, b)
                    cases += 1
    elapsed = time.perf_counter() - t0
    report(5, "all-sizes-one blocks equal f*n^(k-1)", f"{cases} cases, {elapsed:.1f}s")


def test_06_distinct_solution_formulas():
    t0 = time.perf_counter()
    cases = 0
    for n in range(2, 16):
        units = [c for c in range(1, n) if math.gcd(c, n) == 1]
        for k in range(1, 5):
            for coeffs in itertools.combinations_with_replacement(units, k):
                spec0 = CongruenceSpec(n, coeffs, 0)
                try:
                    formulas.distinct_count_gcd_condition(spec0)
                except Exception:
                    continue
                hist = oracles.oracle_histogram(spec0, "distinct")
                for b in range(n):
                    got = formulas.distinct_count_gcd_condition(CongruenceSpec(n, coeffs, b))
                    assert got.count == hist[b], (n, coeffs, b)
                    cases += 1
    # Schoenemann's prime case and the two-case closed form
    assert formulas.distinct_count_gcd_condition(CongruenceSpec(5, (1, 4), 0)).count == 0
    assert formulas.distinct_count_gcd_condition(CongruenceSpec(5, (1, 2, 2), 0)).count == 20
    assert formulas.distinct_count_equal_coeffs(9, 3, 1, 0).count == 60
    for n, k in ((9, 3), (25, 5), (15, 3)):
        fact = math.factorial(k - 1)
        falling = math.perm(n - 1, k - 1)
        for b in range(n):
            got = formulas.distinct_count_equal_coeffs(n, k, 1, b).count
            if b % k == 0:
                expected = (1 if (k - 1) % 2 == 0 else -1) * fact * (k - 1) + falling
            else:
                expected = (1 if k % 2 == 0 else -1) * fact + falling
            assert got == expected, (n, k, b)
    elapsed = time.perf_counter() - t0
    report(6, "distinct-solution formulas", f"{cases} oracle cases, {elapsed:.1f}s")


def test_07_machinery_identities():
    t0 = time.perf_counter()
    # Hoelder closed form vs the literal unit sum
    for n in range(1, 201):
        for b in range(n):
            units = sum(e(j * b, n) for j in range(1, n + 1) if math.gcd(j, n) == 1)
            assert abs(arith.ramanujan_sum(n, b) - units) < 1e-6, (n, b)
    for p in (3, 5, 7):
        for ell in (1, 2, 3):
            mod = p**ell
            for m in range(mod):
                # Gauss closed form vs the literal sum of (x/p) e(m*x/p^ell)
                gauss = characters.gauss_sum_real_prime_power(p, ell, m)
                literal = sum(arith.jacobi_symbol(x, p) * e(m * x, mod) for x in range(mod))
                assert abs(gauss - literal) < 1e-6, (p, ell, m)
                # square-indicator decomposition: the literal sum over the squares
                # is 1 + (1/2) * sum over even j < ell of (C + G) mod p^(ell-j)
                lhs = sum(e(x * m, mod) for x in characters.squares(mod))
                rhs = 1 + sum(
                    arith.ramanujan_sum(p ** (ell - j), m)
                    + characters.gauss_sum_real_prime_power(p, ell - j, m)
                    for j in range(0, ell, 2)
                ) / 2
                assert abs(lhs - rhs) < 1e-6, (p, ell, m)
    # exponential product identity: prod_j (1 - z e(j*a*m/n)) = (1 - z^(n/d))^d
    for n in range(1, 13):
        for a in range(n):
            for m in range(n):
                lhs = [1] + [0] * n
                for j in range(1, n + 1):
                    w = e(j * a * m, n)
                    for t in range(j, 0, -1):
                        lhs[t] -= w * lhs[t - 1]
                d = math.gcd(a * m, n)
                rhs = [0] * (n + 1)
                for i in range(d + 1):
                    rhs[i * n // d] = (-1) ** i * math.comb(d, i)
                assert max(abs(x - y) for x, y in zip(lhs, rhs)) < 1e-6, (n, a, m)
    # s/q multiplicativity and the prime-power recursion, with s(n) the
    # number of squares mod n and q(n) the number of them that are units
    def s_and_q(n):
        square_set = characters.squares(n)
        return len(square_set), sum(1 for x in square_set if math.gcd(x, n) == 1)

    for n1 in range(1, 51):
        for n2 in range(n1, 51):
            if math.gcd(n1, n2) == 1:
                (s1, q1), (s2, q2), (s12, q12) = s_and_q(n1), s_and_q(n2), s_and_q(n1 * n2)
                assert s12 == s1 * s2 and q12 == q1 * q2
    for p in (3, 5, 7):
        for r in range(3, 6):
            s_r, q_r = s_and_q(p**r)
            assert s_r == q_r + s_and_q(p ** (r - 2))[0]
    elapsed = time.perf_counter() - t0
    report(7, "machinery identities", f"{elapsed:.1f}s")


def test_08_square_count_multiplicative():
    t0 = time.perf_counter()
    pairs = 0
    samples = (((1, 1), 0), ((1, 2), 1))
    for n1 in range(3, 2026, 2):
        if n1 * n1 > 2025:
            break
        for n2 in range(n1, 2026, 2):
            if n1 * n2 > 2025:
                break
            if math.gcd(n1, n2) != 1:
                continue
            for coeffs, b in samples:
                lhs = formulas.square_count(CongruenceSpec(n1 * n2, coeffs, b)).count
                rhs = (
                    formulas.square_count(CongruenceSpec(n1, coeffs, b)).count
                    * formulas.square_count(CongruenceSpec(n2, coeffs, b)).count
                )
                assert lhs == rhs, (n1, n2, coeffs, b)
            pairs += 1
    # oracle teeth on a subsample: the product law holds against enumeration
    for n1, n2 in ((3, 5), (9, 5), (9, 25), (27, 5), (3, 25), (27, 25), (9, 49)):
        for coeffs, b in samples:
            direct = oracles.oracle_count(CongruenceSpec(n1 * n2, coeffs, b), "square")
            assert direct == formulas.square_count(CongruenceSpec(n1 * n2, coeffs, b)).count
    elapsed = time.perf_counter() - t0
    report(8, "square-count multiplicativity <= 2025", f"{pairs} coprime pairs, {elapsed:.1f}s")


def test_09_formula_asymptotics():
    n, k = 10**4, 10
    t0 = time.perf_counter()
    result = formulas.strict_order_count(n, k, 1, 1)
    elapsed = time.perf_counter() - t0
    assert result.count > 0
    assert elapsed < 0.1, f"formula path took {elapsed:.3f}s (budget 100ms)"
    with pytest.raises(BudgetExceededError):
        oracles.oracle_count(CongruenceSpec(n, (1,) * k, 1), "strict-order", OracleBudget())
    report(9, "formula fast at n=10^4 k=10, oracle over budget", f"{elapsed * 1000:.1f} ms")


def test_10_selftest_and_mutation_sensitivity(monkeypatch, capsys, cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "lincong.cli", "selftest"], capture_output=True, text=True,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # flip the Gauss-sum sign and demand that the square-count golden breaks
    original = arith.epsilon
    monkeypatch.setattr(arith, "epsilon", lambda n: -original(n))
    broken = False
    try:
        broken = formulas.square_count(CongruenceSpec(27, (1, 1), 1)).count != 4
    except ConsistencyError:
        broken = True
    assert broken, "flipped epsilon must not reproduce the golden square count"
    monkeypatch.undo()
    assert formulas.square_count(CongruenceSpec(27, (1, 1), 1)).count == 4
    report(10, "selftest green, mutation detected", "epsilon sign flip breaks criterion 3")
