"""Closed-form counters against golden values and the oracle histograms.

The exhaustive sweeps demanded by the acceptance criteria live in
test_acceptance.py; here each counter gets its worked examples, edge cases,
error contracts, and a small oracle sweep.
"""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lincong import arith, characters, formulas, oracles
from lincong.errors import BudgetExceededError, ConsistencyError, DomainError
from lincong.model import (
    FORMULA, ORACLE_FALLBACK, BlockSpec, CongruenceSpec, CountResult, OracleBudget,
)


def test_congruence_spec_reduces():
    spec = CongruenceSpec(7, (8, -1), 15)
    assert spec.coeffs == (1, 6) and spec.b == 1
    with pytest.raises(DomainError):
        CongruenceSpec(5, (), 0)
    with pytest.raises(DomainError):
        CongruenceSpec(0, (1,), 0)
    with pytest.raises(DomainError):
        CongruenceSpec(-3, (1,), 0)


def test_count_result_invariants():
    with pytest.raises(ConsistencyError):
        CountResult(-1, "formula")
    with pytest.raises(ConsistencyError):
        CountResult(1, "formula", residual=1e-3)
    with pytest.raises(ConsistencyError):
        CountResult(1, "formula", residual=-1e-9)
    assert CountResult(0, "formula", 9e-7).residual == 9e-7


def test_lehmer_examples():
    assert formulas.lehmer_count(CongruenceSpec(27, (1, 1), 1)).count == 27
    assert formulas.lehmer_count(CongruenceSpec(4, (2,), 3)).count == 0
    spec = CongruenceSpec(6, (2, 4), 4)
    assert formulas.lehmer_count(spec).count == 12
    assert oracles.oracle_count(spec, "all") == 12


def test_square_count_paper_values():
    assert formulas.square_count(CongruenceSpec(27, (1, 1), 1)).count == 4
    assert formulas.square_count(CongruenceSpec(9, (1, 1), 3)).count == 0
    assert formulas.square_count(CongruenceSpec(9, (1, 1), 2)).count == 3


def test_square_count_method_tags():
    res = formulas.square_count(CongruenceSpec(27, (1, 1), 1))
    assert res.method == "formula" and res.residual < 1e-6
    res = formulas.square_count(CongruenceSpec(8, (1, 1), 2))
    assert res.method == "oracle-fallback"
    assert res.count == oracles.oracle_count(CongruenceSpec(8, (1, 1), 2), "square")


def test_square_count_fallback_honours_budget():
    # even n falls back to the oracle over the 3 squares mod 8: 3**2 states
    spec = CongruenceSpec(8, (1, 1), 2)
    budget = OracleBudget(1)
    with pytest.raises(BudgetExceededError):
        formulas.square_count(spec, budget)
    assert budget.used == 0
    budget = OracleBudget(9)
    res = formulas.square_count(spec, budget)
    assert res.count == 1 and res.method == "oracle-fallback"
    assert budget.used == 9


def test_one_square_fallback_and_one_budget_rule(monkeypatch):
    # square_count is the square counter at b: its even-n fallback is the
    # counter's histogram, not oracle_count, charged to the budget it is given
    def no_oracle_count(*args):
        raise AssertionError("square_count went through oracle_count")

    monkeypatch.setattr(oracles, "oracle_count", no_oracle_count)
    budget = OracleBudget(9)
    res = formulas.square_count(CongruenceSpec(8, (1, 1), 2), budget)
    assert res == CountResult(1, ORACLE_FALLBACK) and budget.used == 9
    # a sweep builds one histogram and charges it once; a budget one state
    # short refuses the counter when it is built and keeps no charge
    histogram, calls = oracles.oracle_histogram, []
    monkeypatch.setattr(oracles, "oracle_histogram",
                        lambda *args: calls.append(args) or histogram(*args))
    spec = CongruenceSpec(12, (1, 3), 0)
    states = oracles.state_count(spec, "square")
    budget = OracleBudget(states)
    count_at = formulas.counter(spec, "square", budget)
    assert [count_at(b).count for b in range(12)] == histogram(spec, "square")
    assert len(calls) == 1 and budget.used == states
    short = OracleBudget(states - 1)
    with pytest.raises(BudgetExceededError):
        formulas.counter(spec, "square", short)
    assert short.used == 0


def test_square_count_multiplicative_spot():
    for n1, n2 in ((9, 5), (27, 5), (9, 25), (27, 25), (3, 35)):
        for coeffs in ((1, 1), (1, 2)):
            for b in (0, 1, 2):
                lhs = formulas.square_count(CongruenceSpec(n1 * n2, coeffs, b)).count
                rhs = (
                    formulas.square_count(CongruenceSpec(n1, coeffs, b)).count
                    * formulas.square_count(CongruenceSpec(n2, coeffs, b)).count
                )
                assert lhs == rhs, (n1, n2, coeffs, b)


def test_square_corollary_examples():
    # the unit case: prime-power modulus, coefficients and target all units
    assert formulas.square_count(CongruenceSpec(3, (1,), 1)).count == 1
    # pairs from the squares {0, 1, 4} mod 5 summing to 1: (0,1) and (1,0)
    res = formulas.square_count(CongruenceSpec(5, (1, 1), 1))
    assert res.count == 2 and res.method == "formula"
    assert res.count == oracles.oracle_count(CongruenceSpec(5, (1, 1), 1), "square")


def test_square_corollary_agrees_with_formula():
    for p, lmax in ((3, 3), (5, 2), (7, 2)):
        for ell in range(1, lmax + 1):
            n = p**ell
            units = [c for c in range(1, n) if math.gcd(c, n) == 1]
            for k in (1, 2, 3):
                for coeffs in itertools.combinations_with_replacement(units[:4], k):
                    hist = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "square")
                    for b in units[:6]:
                        count = formulas.square_count(CongruenceSpec(n, coeffs, b)).count
                        assert count == hist[b], (p, ell, coeffs, b)


def test_square_solution_exists_examples():
    ok, witness = formulas.square_solution_exists(CongruenceSpec(9, (1, 1), 3))
    assert not ok and witness is None
    ok, witness = formulas.square_solution_exists(CongruenceSpec(27, (1, 1), 1))
    assert ok and witness == (1, 0)
    ok, witness = formulas.square_solution_exists(CongruenceSpec(9, (1, 1, 1), 6))
    assert ok and witness is not None


def test_square_solution_exists_never_lies():
    # odd and even moduli, one prime power or several; every witness is
    # substituted and each of its coordinates checked to be a square
    for n in (3, 9, 15, 27, 45, 8, 12, 20, 36, 60, 63):
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement((1, 2, 3), k):
                hist = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "square")
                for b in range(n):
                    spec = CongruenceSpec(n, coeffs, b)
                    ok, witness = formulas.square_solution_exists(spec)
                    assert ok == (hist[b] > 0), (n, coeffs, b)
                    if ok:
                        total = sum(a * x for a, x in zip(coeffs, witness)) % n
                        assert total == b
                        assert all(characters.square_indicator(n, x) for x in witness)
                    else:
                        assert witness is None


def test_square_solution_exists_is_local():
    # 30021 = 3 * 10007: each prime power is solved alone, where a scan of
    # the whole modulus would be charged 10008**3 > 10**8 tuples
    ok, witness = formulas.square_solution_exists(CongruenceSpec(30021, (1, 1, 1), 3))
    assert ok and sum(witness) % 30021 == 3
    assert all(characters.square_indicator(30021, x) for x in witness)
    # n = 45, b = 21: b is 0 mod 3, so mod 9 the class condition cannot fire
    # and the oracle lists (1, 1, 1) first; mod 5 the unit b = 1 takes the
    # first position alone, (1, 0, 0); CRT glues them to (1, 10, 10)
    assert formulas.square_solution_exists(CongruenceSpec(45, (1, 1, 1), 21)) == (True, (1, 10, 10))
    # a local oracle listing is charged to the budget it is given: mod 9 it
    # lists the 4**3 triples of squares
    budget = OracleBudget(4**3 - 1)
    with pytest.raises(BudgetExceededError):
        formulas.square_solution_exists(CongruenceSpec(45, (1, 1, 1), 21), budget)
    budget = OracleBudget(4**3)
    assert formulas.square_solution_exists(CongruenceSpec(45, (1, 1, 1), 21), budget)[0]
    assert budget.used == 4**3


def test_square_counter_charges_its_subset_products():
    # odd n: 2**k subset products per residue of each prime power, charged
    # once per counter, when it is built; a refused charge keeps nothing
    # and comes before any 2**k array
    budget = OracleBudget(10**5)
    with pytest.raises(BudgetExceededError):
        formulas.square_count(CongruenceSpec(3, (1,) * 18, 1), budget)
    assert budget.used == 0
    spec = CongruenceSpec(3, (1, 2), 0)
    budget = OracleBudget(2**2 * 3)
    count_at = formulas.counter(spec, "square", budget)
    assert [count_at(b).count for b in range(3)] == oracles.oracle_histogram(spec, "square")
    assert budget.used == 2**2 * 3
    short = OracleBudget(2**2 * 3 - 1)
    with pytest.raises(BudgetExceededError):
        formulas.counter(spec, "square", short)
    assert short.used == 0
    # 2**25 * 3 > 10**8: the default budget refuses k = 25 at once, where the
    # subset loop would allocate two arrays of 2**25 doubles per target
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            formulas.square_count(CongruenceSpec(3, (1,) * 25, 1))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 2**20, (elapsed, peak)


def test_refused_square_counter_builds_nothing(monkeypatch):
    # 2**2 * 9 = 36 subset products do not fit a budget of 35: the counter
    # is refused before a single square term is built, and keeps no charge
    inner, calls = formulas._square_term, []
    monkeypatch.setattr(formulas, "_square_term", lambda *args: calls.append(args) or inner(*args))
    budget = OracleBudget(35)
    with pytest.raises(BudgetExceededError):
        formulas.counter(CongruenceSpec(9, (1, 2), 0), "square", budget)
    assert calls == [] and budget.used == 0


def test_square_solution_exists_answers_no_without_a_walk():
    # mod 243 no tuple of squares hits 91: the listing ends after one pass
    # over the first position's domain, where a walk of every tuple would
    # visit 92**4 of them
    t0 = time.perf_counter()
    assert formulas.square_solution_exists(CongruenceSpec(243, (12, 134, 54, 165), 91)) == (False, None)
    assert time.perf_counter() - t0 < 1


def test_strict_order_examples():
    assert formulas.strict_order_count(5, 2, 1, 0).count == 2
    # k = 1 collapses to the number of solutions of a*x = b
    for n, a, b in ((12, 3, 6), (10, 4, 2), (7, 1, 3)):
        f = math.gcd(a, n)
        expected = f if b % f == 0 else 0
        assert formulas.strict_order_count(n, 1, a, b).count == expected
    assert formulas.strict_order_count(4, 2, 2, 1).count == 0  # f = 2 does not divide 1


def test_strict_order_nonunit_coefficient():
    # f > 1 exercises the reduced-target Ramanujan argument
    assert formulas.strict_order_count(4, 2, 2, 2).count == 4
    hist = oracles.oracle_histogram(CongruenceSpec(4, (2, 2), 0), "strict-order")
    assert hist[2] == 4


def test_strict_order_k_exceeds_n():
    assert formulas.strict_order_count(3, 5, 1, 0).count == 0


def test_strict_order_small_sweep():
    for n in range(1, 13):
        for k in range(1, 5):
            for a in range(n):
                hist = oracles.oracle_histogram(
                    CongruenceSpec(n, (a,) * k, 0), "strict-order"
                )
                for b in range(n):
                    assert formulas.strict_order_count(n, k, a, b).count == hist[b]


def test_strict_order_sums_to_binomial():
    for n in range(1, 21):
        for k in range(1, 6):
            total = sum(formulas.strict_order_count(n, k, 1, b).count for b in range(n))
            assert total == math.comb(n, k)


def test_distinct_equal_coeffs_examples():
    assert formulas.distinct_count_equal_coeffs(5, 2, 1, 0).count == 4
    assert formulas.distinct_count_equal_coeffs(5, 2, 1, 1).count == 4
    # k = 3 is the smallest prime divisor of 9; case formula gives
    # (-1)^(k-1) (k-1)! (k-1) + (n-1)(n-2) = 4 + 56
    assert formulas.distinct_count_equal_coeffs(9, 3, 1, 0).count == 60


def test_distinct_equal_is_factorial_times_strict():
    for n in range(1, 13):
        for k in range(1, 5):
            for a in range(n):
                for b in range(n):
                    strict = formulas.strict_order_count(n, k, a, b).count
                    distinct = formulas.distinct_count_equal_coeffs(n, k, a, b).count
                    assert distinct == math.factorial(k) * strict


def test_distinct_equal_zero_count_skips_factorial(monkeypatch):
    # k > n leaves no strictly ordered tuple, so k! is never needed; at
    # k = 300000 computing it would take over a second
    def refuse(k):
        raise AssertionError(f"factorial({k}) computed for a zero count")

    monkeypatch.setattr(math, "factorial", refuse)
    for n, k in ((5, 300000), (5, 6), (1, 2)):
        for b in range(n):
            res = formulas.distinct_count_equal_coeffs(n, k, 1, b)
            assert res == CountResult(0, FORMULA)
    assert formulas.distinct_count_equal_coeffs(4, 2, 2, 1) == CountResult(0, FORMULA)


def test_distinct_equal_unit_case_closed_form():
    # f = 1 and gcd(k, n) = 1: the count is (n-1)(n-2)...(n-k+1)
    for n, k in ((5, 2), (7, 3), (10, 3), (9, 2)):
        for b in range(n):
            expected = math.perm(n - 1, k - 1)
            assert formulas.distinct_count_equal_coeffs(n, k, 1, b).count == expected


def test_distinct_equal_smallest_prime_case():
    # k equal to the smallest prime divisor of n, unit coefficient
    for n, k in ((9, 3), (15, 3), (25, 5), (21, 3)):
        fact = math.factorial(k - 1)
        falling = math.perm(n - 1, k - 1)
        for b in range(n):
            got = formulas.distinct_count_equal_coeffs(n, k, 1, b).count
            if b % k == 0:
                sign = 1 if (k - 1) % 2 == 0 else -1
                assert got == sign * fact * (k - 1) + falling
            else:
                sign = 1 if k % 2 == 0 else -1
                assert got == sign * fact + falling


def test_distinct_equal_coeffs_the_verify_grid_drops():
    # the default distinct verify grid keeps only tuples that pass the
    # subset-sum hypothesis, which equal coefficients do not need (k! times
    # strict order): the 206 of the 360 equal-coefficient tuples at
    # k = 2..4, n <= 15 that it drops, at every target, against the oracle
    dropped = [(n, k, a) for n in range(1, 16) for k in (2, 3, 4) for a in range(n)
               if formulas.subset_sum_obstruction(n, (a,) * k) is not None]
    assert len(dropped) == 206
    for n, k, a in dropped:
        spec = CongruenceSpec(n, (a,) * k, 0)
        count_at = formulas.counter(spec, "distinct")
        hist = oracles.oracle_histogram(spec, "distinct")
        assert [count_at(b).count for b in range(n)] == hist, (n, k, a)


def test_distinct_gcd_condition_examples():
    assert formulas.distinct_count_gcd_condition(CongruenceSpec(5, (1, 4), 0)).count == 0
    assert formulas.distinct_count_gcd_condition(CongruenceSpec(7, (1, 1), 1)).count == 6
    # Schoenemann's prime case: sum of coefficients divisible by p
    assert formulas.distinct_count_gcd_condition(CongruenceSpec(5, (1, 2, 2), 0)).count == 20


def test_distinct_gcd_condition_names_violation():
    with pytest.raises(DomainError) as err:
        formulas.distinct_count_gcd_condition(CongruenceSpec(6, (2, 1), 0))
    assert "(0,)" in str(err.value)
    with pytest.raises(DomainError):
        formulas.distinct_count_gcd_condition(CongruenceSpec(21, (1,) * 21, 0))


def test_subset_sum_obstruction_matches_combinations_search():
    # the literal search: subsets by size, then in combinations order, each
    # summed from scratch; the first whose sum shares a factor with n
    def first_obstruction(n, coeffs):
        for size in range(1, len(coeffs)):
            for subset in itertools.combinations(range(len(coeffs)), size):
                s = sum(coeffs[i] for i in subset)
                if math.gcd(s, n) != 1:
                    return subset, s
        return None

    rng = random.Random(9)
    found = 0
    for _ in range(3000):
        n = rng.randrange(1, 40)
        coeffs = tuple(rng.randrange(-n, 2 * n) for _ in range(rng.randrange(0, 7)))
        expected = first_obstruction(n, coeffs)
        assert formulas.subset_sum_obstruction(n, coeffs) == expected, (n, coeffs)
        found += expected is not None
    assert 0 < found < 3000  # both outcomes are exercised
    for k in (8, 10):  # the hypothesis holds: every subset is checked
        assert formulas.subset_sum_obstruction(10**9 + 7, (1,) * k) is None
        assert formulas.subset_sum_obstruction(30, (7, 1) + (7,) * (k - 2)) == ((0, 1), 8)


def test_subset_sum_obstruction_at_n_1_walks_nothing(monkeypatch):
    # every gcd with 1 is 1: no walk over the 2**21 subset sums, which the
    # distinct verify grid would make at every tuple at n = 1
    def refuse(k):
        raise AssertionError(f"subset walk at k = {k}")

    monkeypatch.setattr(formulas, "_subset_walk", refuse)
    formulas._subset_sum_obstruction.cache_clear()
    assert formulas.subset_sum_obstruction(1, (0,) * 21) is None


def test_distinct_gcd_condition_schoenemann_specialization():
    # p prime, coefficients summing to 0 mod p, proper subsets coprime:
    # the count is (-1)^(k-1) (k-1)! (p-1) + (p-1)...(p-k+1), independent of
    # the coefficients
    cases = [
        (5, (1, 4)), (5, (2, 3)), (5, (1, 2, 2)), (5, (1, 1, 3)),
        (7, (1, 2, 4)), (7, (1, 1, 5)), (7, (2, 2, 3)),
        (7, (1, 1, 2, 3)), (5, (1, 1, 1, 2)),
    ]
    for p, coeffs in cases:
        assert sum(coeffs) % p == 0
        k = len(coeffs)
        sign = 1 if (k - 1) % 2 == 0 else -1
        expected = sign * math.factorial(k - 1) * (p - 1) + math.perm(p - 1, k - 1)
        got = formulas.distinct_count_gcd_condition(CongruenceSpec(p, coeffs, 0))
        assert got.count == expected, (p, coeffs)


def test_distinct_gcd_condition_oracle_sweep():
    for n in range(2, 13):
        for k in range(1, 5):
            units = [c for c in range(1, n) if math.gcd(c, n) == 1]
            for coeffs in itertools.combinations_with_replacement(units, k):
                try:
                    spec0 = CongruenceSpec(n, coeffs, 0)
                    formulas.distinct_count_gcd_condition(spec0)
                except DomainError:
                    continue
                hist = oracles.oracle_histogram(spec0, "distinct")
                for b in range(n):
                    got = formulas.distinct_count_gcd_condition(CongruenceSpec(n, coeffs, b))
                    assert got.count == hist[b], (n, coeffs, b)


def test_blocks_paper_values():
    assert formulas.order_blocks_count(BlockSpec(6, ((2, 2), (2, 3)), 5)).count == 63
    assert formulas.order_blocks_count(BlockSpec(4, ((2, 1), (2, 3)), 1)).count == 24


def test_blocks_common_gcd_nonunit():
    # all-equal gcd f = 2: exercises the reduced-target Ramanujan argument
    res = formulas.order_blocks_count(BlockSpec(4, ((2, 2),), 2))
    assert res.count == 4
    hist = oracles.oracle_histogram(BlockSpec(4, ((2, 2),), 0), "blocks")
    assert hist[2] == 4
    assert formulas.order_blocks_count(BlockSpec(4, ((2, 2),), 1)).count == 0


def test_blocks_degenerate_all_sizes_one():
    for n in (5, 6, 9, 12, 30):
        for coeffs in ((1, 2, 3), (2, 4), (3, 6, 9), (2, 2, 2), (5, 10)):
            for b in range(n):
                blocks = tuple((1, a) for a in coeffs)
                got = formulas.order_blocks_count(BlockSpec(n, blocks, b)).count
                ref = formulas.lehmer_count(CongruenceSpec(n, coeffs, b)).count
                assert got == ref, (n, coeffs, b)
                gcds = {math.gcd(a, n) for a in coeffs}
                if len(gcds) == 1:
                    f = gcds.pop()
                    expected = f * n ** (len(coeffs) - 1) if b % f == 0 else 0
                    assert got == expected


def test_blocks_oracle_sweep():
    configs = [
        ((1, 1),), ((2, 1),), ((3, 2),),
        ((1, 2), (2, 3)), ((2, 2), (2, 3)), ((2, 2), (1, 3), (1, 1)),
        ((3, 2), (2, 4)), ((2, 3), (2, 6)),
    ]
    for n in (2, 3, 4, 5, 6, 8, 9, 10, 12):
        for blocks in configs:
            hist = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks")
            for b in range(n):
                got = formulas.order_blocks_count(BlockSpec(n, blocks, b))
                assert got.count == hist[b], (n, blocks, b)


def test_blocks_sum_over_targets():
    for n in (4, 6, 9):
        for blocks in [((2, 1), (3, 2)), ((2, 2), (2, 3)), ((1, 1), (2, 5))]:
            total = sum(
                formulas.order_blocks_count(BlockSpec(n, blocks, b)).count
                for b in range(n)
            )
            expected = math.prod(math.comb(n + size - 1, size) for size, _ in blocks)
            assert total == expected


def _blocks_per_call_reference(spec):
    """The mixed-gcd block sum evaluated anew on every call: weights
    rebuilt per block, every m in [1, n] scanned for each divisor tuple and
    each root computed on the spot, in the float order order_blocks_count
    must keep."""
    n, b = spec.n, spec.b
    sizes, coeffs = spec.sizes, spec.coeffs
    t = len(sizes)
    weights = []
    for ki in sizes:
        per_block = {}
        for d in arith.divisors(n):
            if (ki * d) % n:
                continue
            j = ki * d // n
            per_block[d] = Fraction(d, d + j) * math.comb(d + j, j)
        weights.append(per_block)
    acc = 0j
    for combo in itertools.product(*(sorted(w) for w in weights)):
        weight = math.prod(weights[i][d] for i, d in enumerate(combo))
        if weight == 0:
            continue
        expo = 0j
        for m in range(1, n + 1):
            if all(math.gcd(coeffs[i] * m, n) == combo[i] for i in range(t)):
                expo += arith.root_of_unity(-b * m, n)
        acc += float(weight) * expo
    value, resid = arith.round_complex_to_int(acc / n)
    if value < 0:
        raise ConsistencyError(f"negative block count {value}")
    return CountResult(value, FORMULA, resid)


def _outcome(fn, spec):
    try:
        res = fn(spec)
    except (ConsistencyError, DomainError) as exc:
        return type(exc), str(exc)
    return res.count, repr(res.residual), res.method


def test_blocks_mixed_gcd_bit_identical_to_per_call_sum():
    # the cached orbit plan must not change a single float operation: same
    # count, same residual bits, same error on every target
    shapes = [(1, 2), (3, 2), (2, 3), (1, 1, 2), (2, 1, 3), (3, 3, 1)]
    specs = []
    for n in range(2, 25):
        for sizes in shapes:
            for coeffs in itertools.product((1, 2, 3, 4, 6), repeat=len(sizes)):
                coeffs = tuple(a % n for a in coeffs)
                if len({math.gcd(a, n) for a in coeffs}) > 1 and coeffs[0] < coeffs[1]:
                    specs += [BlockSpec(n, tuple(zip(sizes, coeffs)), b) for b in range(n)]
    # a zero count whose float noise raises ConsistencyError (ROADMAP K3)
    specs.append(BlockSpec(168, ((2, 2), (2, 4), (1, 6), (1, 8)), 1))
    for spec in specs:
        want = _outcome(_blocks_per_call_reference, spec)
        assert _outcome(formulas.order_blocks_count, spec) == want, spec
    assert _outcome(formulas.order_blocks_count, specs[-1])[0] is ConsistencyError


def test_blocks_cache_keys_on_coefficients_and_sizes():
    # targets interleaved across specs that share n and sizes, or n and
    # coefficients, so a plan cached under too loose a key gives a wrong count
    n = 12
    specs = [
        ((2, 1), (3, 2)),
        ((2, 1), (3, 3)),
        ((1, 1), (2, 2)),
        ((3, 1), (1, 2)),
    ]
    hists = [oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks") for blocks in specs]
    for b in range(n):
        for blocks, hist in zip(specs, hists):
            got = formulas.order_blocks_count(BlockSpec(n, blocks, b))
            assert got.count == hist[b], (blocks, b)


def test_divisor_sum_caches_key_on_f():
    # targets interleaved across instances that share every other key field
    # of a cache but differ in f = gcd(a, n), so terms cached under too loose
    # a key give a wrong count
    for n, k in ((12, 2), (12, 3), (12, 4), (18, 3)):
        coeffs = (1, 2, 3, 4, 6, 9, 0)  # f = gcd(a, n) from 1 up to n
        hists = [oracles.oracle_histogram(CongruenceSpec(n, (a,) * k, 0), "strict-order")
                 for a in coeffs]
        for b in range(n):
            for a, hist in zip(coeffs, hists):
                assert formulas.strict_order_count(n, k, a, b).count == hist[b], (n, k, a, b)
    n = 12
    for sizes in ((2, 3), (1, 4), (2, 2, 2)):
        # every coefficient of a tuple has gcd f with 12: f = 1, 2, 3, 4, 6, 12
        coeffs = ((1, 5, 7), (2, 10, 2), (3, 9, 3), (4, 8, 4), (6, 6, 6), (0, 0, 0))
        specs = [tuple(zip(sizes, c)) for c in coeffs]
        hists = [oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks") for blocks in specs]
        for b in range(n):
            for blocks, hist in zip(specs, hists):
                got = formulas.order_blocks_count(BlockSpec(n, blocks, b))
                assert got.count == hist[b], (blocks, b)
    # distinct tuples at one n, some of them obstructed
    n = 15
    tuples = ((1, 1), (1, 3), (1, 2), (2, 5, 7), (1, 1, 2), (4, 4), (1, 2, 4))
    hists = {c: oracles.oracle_histogram(CongruenceSpec(n, c, 0), "distinct") for c in tuples}
    obstructed = {c for c in tuples if formulas.subset_sum_obstruction(n, c) is not None}
    assert 0 < len(obstructed) < len(tuples)
    for b in range(n):
        for coeffs in tuples:
            spec = CongruenceSpec(n, coeffs, b)
            if coeffs in obstructed:
                with pytest.raises(DomainError):
                    formulas.distinct_count_gcd_condition(spec)
            else:
                got = formulas.distinct_count_gcd_condition(spec)
                assert got.count == hists[coeffs][b], (coeffs, b)


def test_blocks_common_gcd_integer_sum_grid():
    # the integer divisor sum at every common gcd f | n, f > 1 included, with
    # block sizes up to 4
    checked = 0
    for n in (4, 6, 8, 9, 10, 12):
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for f in arith.divisors(n):
            coeffs = [f * u % n for u in units[:3]]  # each has gcd f with n
            for t in (1, 2, 3):
                for sizes in itertools.combinations_with_replacement(range(1, 5), t):
                    if t == 3 and sum(sizes) > 6:
                        continue
                    blocks = tuple((s, coeffs[i % len(coeffs)]) for i, s in enumerate(sizes))
                    hist = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks")
                    for b in range(n):
                        got = formulas.order_blocks_count(BlockSpec(n, blocks, b))
                        assert (got.count, got.residual) == (hist[b], 0.0), (n, blocks, b)
                    checked += f > 1
    assert checked > 300


def test_blocks_common_gcd_past_2_64():
    # f = 2 at n = 60, three blocks of size 10: even targets count above 2**110
    blocks = ((10, 2), (10, 14), (10, 22))
    hist = oracles.oracle_histogram(BlockSpec(60, blocks, 0), "blocks", OracleBudget(10**40))
    assert max(hist) > 2**64
    for b in range(60):
        assert formulas.order_blocks_count(BlockSpec(60, blocks, b)).count == hist[b], b


def test_engine_matches_oracle_on_weak_blocks():
    # _engine on weakly ordered blocks equals the oracle for every instance,
    # mixed gcds included, though order_blocks_count takes the float orbit
    # sum there: every n <= 12 with one or two blocks of size <= 3 and every
    # coefficient, then the three block shapes where that float sum gives a
    # wrong count or raises ConsistencyError
    budget = OracleBudget(10**30)
    cases = []
    for n in range(1, 13):
        pairs = [(s, a) for s in (1, 2, 3) for a in range(n)]
        cases += [(n, (p,)) for p in pairs]
        cases += [(n, blocks) for blocks in itertools.combinations_with_replacement(pairs, 2)]
    cases += [(18, ((8, 2), (8, 3), (8, 1))), (30, ((10, 2), (10, 3), (10, 5))),
              (168, ((2, 2), (2, 4), (1, 6), (1, 8)))]
    mixed = 0
    for n, blocks in cases:
        count_at = formulas._engine(n, [("weak", k, a) for k, a in blocks])
        hist = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks", budget)
        assert [count_at(b).count for b in range(n)] == hist, (n, blocks)
        mixed += len({math.gcd(a, n) for _, a in blocks}) > 1
    assert mixed > 1000


def test_engine_never_factors_n(monkeypatch):
    # the engine factors only G, a divisor of gcd(n, k_1*gcd(a_1, n), ...),
    # so strict order and common-gcd blocks count at moduli whose
    # factorization by trial division would be slow
    factorize = arith.factorize

    def small_only(m):
        assert m <= 10**6, f"factorize({m})"
        return factorize(m)

    monkeypatch.setattr(arith, "factorize", small_only)
    formulas._strict.cache_clear()
    formulas._blocks.cache_clear()
    n = 10**12 + 39  # prime, so G = gcd(n, 12) = 1
    assert formulas.strict_order_count(n, 12, 5, 7).count == math.comb(n, 12) // n
    n = 2 * 999999937  # 999999937 is prime; every coefficient has gcd 2 with n
    blocks = ((3, 4), (2, 6), (1, 2))
    even = 2 * math.comb(n + 2, 3) * math.comb(n + 1, 2)
    for b, want in ((0, even), (1, 0), (10**9, even)):
        assert formulas.order_blocks_count(BlockSpec(n, blocks, b)).count == want, b


def test_built_exact_counter_does_no_arithmetic_at_a_target(monkeypatch):
    # an exact counter is a table by gcd class, built with it: with the
    # Ramanujan sum refused after the build, every class reads the same.
    # Strict order and distinct have f = 5 and G = 12 (seven outcomes), all
    # has f = 2, the common-gcd blocks f = 6
    cases = [
        (CongruenceSpec(720720, (5,) * 12, 0), "strict-order"),
        (CongruenceSpec(720720, (5,) * 12, 0), "distinct"),
        (CongruenceSpec(720, (4, 6, 10), 0), "all"),
        (BlockSpec(720, ((2, 6), (3, 42), (4, 66)), 0), "blocks"),
    ]
    targets = sorted(set(range(720)) | set(arith.divisors(720720)))
    counters = [formulas.counter(spec, restriction) for spec, restriction in cases]
    before = [[count_at(b) for b in targets] for count_at in counters]
    assert [len({r.count for r in row}) for row in before] == [7, 7, 2, 2]

    def refuse(*args):
        raise AssertionError(f"arithmetic {args} at a target")
    monkeypatch.setattr(arith, "ramanujan_sum", refuse)
    assert [[count_at(b) for b in targets] for count_at in counters] == before
    # every class has been read once, so no k!, binomial or product is left
    monkeypatch.setattr(math, "factorial", refuse)
    monkeypatch.setattr(math, "comb", refuse)
    assert [[count_at(b) for b in targets] for count_at in counters] == before


def test_class_sums_match_the_ramanujan_sum_table():
    # the two passes against the tau(G)^2 sum they replace, sum over h | G
    # of c_h*C_h(d), for random terms (zeros and numbers past 2**64
    # included) at every G <= 64 and at G up to 720720 = 2^4*3^2*5*7*11*13
    rng = random.Random(26)
    for bound in [*range(1, 65), 720, 5040, 129600, 720720]:
        classes = arith.divisors(bound)
        c = {h: rng.choice((0, rng.randrange(-9, 10), rng.randrange(-2**80, 2**80)))
             for h in classes}
        want = {d: sum(c[h] * arith.ramanujan_sum(h, d) for h in classes) for d in classes}
        formulas._class_sums(bound, c)
        assert c == want, bound


def test_engine_refuses_a_bad_sum_when_built(monkeypatch):
    # a weight one too large leaves class sums that n does not divide: the
    # engine raises ConsistencyError when it is built, not at a target
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(ConsistencyError):
        formulas._engine(12, [("strict", 2, 1)])


def test_unit_scaling_identity_past_the_oracle():
    # N(b) depends on b only through gcd(b, n) for a restriction closed under
    # scaling by units, so the sum over g | n of phi(n/g)*N(g) is the state
    # count: every class of every table, at moduli no oracle reaches
    for n in (10**6 + 3, 129600, 720720):
        classes = [(arith.euler_phi(n // g), g % n) for g in arith.divisors(n)]

        def total(count_at):
            return sum(phi * count_at(b).count for phi, b in classes)
        coeffs = (4, 6, 10)
        assert total(lambda b: formulas.lehmer_count(CongruenceSpec(n, coeffs, b))) == n**3
        for k, a in ((7, 1), (12, 10), (30, 9)):
            assert total(lambda b: formulas.strict_order_count(n, k, a, b)) == math.comb(n, k)
            equal = total(lambda b: formulas.distinct_count_equal_coeffs(n, k, a, b))
            assert equal == math.perm(n, k)
        # every coefficient has gcd 6 with the composite moduli, 1 with the prime
        blocks = ((6, 102), (12, 114), (18, 138))
        states = math.prod(math.comb(n + s - 1, s) for s, _ in blocks)
        assert total(lambda b: formulas.order_blocks_count(BlockSpec(n, blocks, b))) == states


@st.composite
def _exact_case(draw):
    """(spec, restriction) on an exact route: all, strict order or distinct
    with equal coefficients, or blocks whose coefficients share one gcd with n."""
    restriction = draw(st.sampled_from(("all", "strict-order", "distinct", "blocks")))
    if restriction == "all":
        n = draw(st.integers(2, 60))
        coeffs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=13))
        return CongruenceSpec(n, coeffs, 0), restriction
    if restriction != "blocks":
        # the distinct oracle makes up to n*k*2^(k-1) transfers, so distinct
        # reaches n = 200 only in the explicit example below
        n = draw(st.integers(60, 200 if restriction == "strict-order" else 120))
        k = draw(st.integers(1, 8))
        return CongruenceSpec(n, (draw(st.integers(0, n - 1)),) * k, 0), restriction
    n = draw(st.integers(2, 60))
    f = draw(st.sampled_from(arith.divisors(n)))
    units = [u for u in range(1, n // f + 1) if math.gcd(u, n // f) == 1]
    blocks = draw(st.lists(st.tuples(st.integers(1, 10), st.sampled_from(units)),
                           min_size=1, max_size=3))
    return BlockSpec(n, [(s, f * u) for s, u in blocks], 0), restriction


def test_exact_routes_match_oracle_past_2_53():
    # counts past the float limit, every exact route against its oracle
    # histogram at every target; square and mixed-gcd blocks stay out until
    # their float routes are replaced, since they are wrong there
    largest = []

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_exact_case())
    @example((CongruenceSpec(200, (7,) * 8, 0), "distinct"))  # past 2**53
    def check(case):
        spec, restriction = case
        hist = oracles.oracle_histogram(spec, restriction, OracleBudget(10**60))
        count_at = formulas.counter(spec, restriction)
        assert [count_at(b).count for b in range(spec.n)] == hist
        largest.append(max(hist))

    check()
    assert max(largest) > 2**64


def _square_per_subset_reference(spec):
    """The odd-n square count with every subset product multiplied anew: a
    k x p^ell table of terms, then for each nonempty subset K, by size and
    in itertools.combinations order, the sum over m of
    e(-b*m/p^ell) * T_i1(m) * ... * T_ir(m), in the float order
    _square_count_prime_power must keep."""
    total, worst = 1, 0.0
    for p, ell in arith.factorize(spec.n).factors:
        mod = p**ell
        terms = [
            [formulas._square_term(p, ell, a * m) for m in range(1, mod + 1)]
            for a in spec.coeffs
        ]
        phases = [arith.root_of_unity(-spec.b * m, mod) for m in range(1, mod + 1)]
        acc = complex(mod if spec.b % mod == 0 else 0)
        for size in range(1, spec.k + 1):
            weight = 0.5**size
            for subset in itertools.combinations(terms, size):
                s_k = 0j
                for idx, prod in enumerate(phases):
                    for column in subset:
                        prod *= column[idx]
                    s_k += prod
                acc += weight * s_k
        value, resid = arith.round_complex_to_int(acc / mod)
        if value < 0:
            raise ConsistencyError(f"negative square count {value} mod {p}^{ell}")
        total *= value
        worst = max(worst, resid)
    return CountResult(total, FORMULA, worst)


def test_square_count_bit_identical_to_per_subset_loop():
    # shared prefix products must not change a single float operation: same
    # count, same residual bits, same error on every target, on both sides
    # of the 2**10 chunk boundary (k = 12 only below 25, where the reference
    # loop alone would take 1.4 s)
    rng = random.Random(8)
    specs = []
    for mod in (3, 5, 9, 25):
        for k in (1, 3, 10, 11, 12) if mod < 25 else (1, 3, 10, 11):
            coeffs = tuple(rng.randrange(mod) for _ in range(k))
            specs += [CongruenceSpec(mod, coeffs, b) for b in range(mod)]
    # a count the float rounding gets wrong (ROADMAP K3): kept wrong, bit for bit
    specs.append(CongruenceSpec(49, (1,) * 13, 1))
    for spec in specs:
        want = _outcome(_square_per_subset_reference, spec)
        assert _outcome(formulas.square_count, spec) == want, spec


def test_square_counter_reuse_bit_identical_to_per_subset_loop():
    # one counter swept over shuffled targets, repeated residues among them,
    # some past n and some negative: each prime-power part is kept by b mod q,
    # and every target still gets the reference's count, residual bits or error
    rng = random.Random(29)
    for n, k in ((15, 4), (45, 3), (105, 3), (225, 2)):
        coeffs = tuple(rng.randrange(n) for _ in range(k))
        count_at = formulas.counter(CongruenceSpec(n, coeffs, 0), "square")
        targets = [b + n * rng.randrange(-3, 4) for b in range(n)]
        targets += [rng.randrange(-5 * n, 5 * n) for _ in range(n // 3)]
        rng.shuffle(targets)
        want = {}
        for b in targets:
            spec = CongruenceSpec(n, coeffs, b)
            if spec.b not in want:
                want[spec.b] = _outcome(_square_per_subset_reference, spec)
            assert _outcome(lambda _: count_at(b), spec) == want[spec.b], (n, coeffs, b)


def test_square_counter_evaluates_each_part_once_per_residue(monkeypatch):
    # 45 = 9 * 5: each part rounds once per residue it is asked at, so a full
    # sweep rounds 9 + 5 times, not 2 * 45; a new counter starts from nothing
    rounded = []
    real = arith.round_complex_to_int

    def counted(z):
        rounded.append(z)
        return real(z)

    monkeypatch.setattr(arith, "round_complex_to_int", counted)
    spec = CongruenceSpec(45, (1, 7, 3), 0)
    count_at = formulas.counter(spec, "square")
    sweep = [count_at(b) for b in range(45)]
    assert len(rounded) == 14
    assert [count_at(b - 90) for b in range(45)] == sweep and len(rounded) == 14
    again = formulas.counter(spec, "square")
    assert [again(b) for b in range(45)] == sweep and len(rounded) == 28


def test_square_count_sees_a_patched_gauss_sum(monkeypatch):
    # nothing may be cached across calls: a patched Gauss sum changes the
    # next count of the same instance (or makes it raise)
    spec = CongruenceSpec(27, (1, 2, 4), 5)
    before = _outcome(formulas.square_count, spec)
    real = characters.gauss_sum_real_prime_power
    monkeypatch.setattr(
        characters, "gauss_sum_real_prime_power", lambda p, ell, m: -real(p, ell, m)
    )
    assert _outcome(formulas.square_count, spec) != before


def test_blocks_spec_validation():
    with pytest.raises(DomainError):
        BlockSpec(6, ((0, 1),), 0)
    with pytest.raises(DomainError):
        BlockSpec(6, (), 0)
    with pytest.raises(DomainError):
        BlockSpec(6, ((2, 1), (-1, 1)), 0)
    with pytest.raises(DomainError):
        BlockSpec(0, ((1, 1),), 0)


def test_front_door_routes_and_refusals(monkeypatch):
    assert set(formulas._ROUTES) == set(oracles.RESTRICTIONS)
    # equal coefficients take the divisor sum even where the subset-sum
    # hypothesis fails (2 shares a factor with 6): the oracle's count
    spec = CongruenceSpec(6, (2, 2), 0)
    assert formulas.subset_sum_obstruction(6, spec.coeffs) == ((0,), 2)
    assert formulas.count(spec, "distinct") == CountResult(10, FORMULA)
    assert oracles.oracle_histogram(spec, "distinct")[0] == 10
    for spec, restriction in (
        (CongruenceSpec(7, (1, 2), 3), "strict-order"),  # no closed form
        (CongruenceSpec(7, (1, 1), 3), "strict"),  # the CLI's mode, not a restriction
        (CongruenceSpec(7, (1, 1), 3), "blocks"),
        (BlockSpec(7, ((2, 1),), 3), "all"),
    ):
        with pytest.raises(DomainError):
            formulas.counter(spec, restriction)
    # square's even-n fallback charges its one histogram to the given budget,
    # once over the sweep
    spec = CongruenceSpec(8, (1, 3), 0)
    states = oracles.state_count(spec, "square")
    budget = OracleBudget(states)
    count_at = formulas.counter(spec, "square", budget)
    hist = oracles.oracle_histogram(spec, "square")
    assert [count_at(b).count for b in range(8)] == hist and budget.used == states
    with pytest.raises(BudgetExceededError):
        formulas.count(spec, "square", OracleBudget(states - 1))
    # a route reads the instance part's builder when it runs, so a patched one
    # builds the counter (the true count here is 0)
    monkeypatch.setattr(formulas, "_lehmer", lambda n, coeffs: formulas._by_class(1, 1, {1: 7}))
    assert formulas.count(CongruenceSpec(9, (3,), 5), "all") == CountResult(7, FORMULA)


def _at_target(spec, b):
    """A fresh spec of ``spec``'s instance with target b."""
    shape = spec.blocks if isinstance(spec, BlockSpec) else spec.coeffs
    return type(spec)(spec.n, shape, b)


def _named_counter(spec, restriction):
    """The named per-target counter that restriction's route stands for."""
    named = {"all": formulas.lehmer_count, "square": formulas.square_count,
             "blocks": formulas.order_blocks_count}
    if restriction in named:
        return named[restriction](spec)
    n, k, a, b = spec.n, spec.k, spec.coeffs[0], spec.b
    if restriction == "strict-order":
        return formulas.strict_order_count(n, k, a, b)
    if len(set(spec.coeffs)) == 1:
        return formulas.distinct_count_equal_coeffs(n, k, a, b)
    return formulas.distinct_count_gcd_condition(spec)


@pytest.mark.parametrize("builder, spec, restriction", [
    ("_strict", CongruenceSpec(12, (3, 3, 3), 0), "strict-order"),
    ("_distinct_equal", CongruenceSpec(12, (5, 5, 5), 0), "distinct"),
    ("_distinct_gcd", CongruenceSpec(11, (1, 2, 3), 0), "distinct"),
    ("_lehmer", CongruenceSpec(12, (4, 6), 0), "all"),
    ("_blocks", BlockSpec(12, ((2, 2), (3, 10)), 0), "blocks"),
    ("_blocks", BlockSpec(12, ((2, 2), (1, 3)), 0), "blocks"),
], ids=["strict", "distinct-equal", "distinct-gcd", "lehmer", "blocks-common", "blocks-mixed"])
def test_named_counter_sweep_builds_its_instance_once(builder, spec, restriction):
    # a named counter is its instance's cached counter at b: a sweep with a
    # fresh spec at every target builds it once, and the front door's
    # counter for the same instance is that cached one
    cached = getattr(formulas, builder)
    cached.cache_clear()
    for b in range(spec.n):
        _named_counter(_at_target(spec, b), restriction)
    info = cached.cache_info()
    assert (info.misses, info.hits) == (1, spec.n - 1)
    formulas.counter(spec, restriction)
    assert cached.cache_info().hits == spec.n


def test_strict_route_and_named_counter_read_their_own_tables(monkeypatch):
    # at a unit a the named counter reads _strict(n, k, a) and the route
    # _strict(n, k, gcd(a, n)) = _strict(n, k, 1): two tables of one count
    strict, read = formulas._strict, []

    def recorded(n, k, a):
        read.append((n, k, a))
        return strict(n, k, a)

    monkeypatch.setattr(formulas, "_strict", recorded)
    strict.cache_clear()
    named = [formulas.strict_order_count(12, 3, 5, b) for b in range(12)]
    info = strict.cache_info()
    assert read == [(12, 3, 5)] * 12 and (info.misses, info.hits) == (1, 11)
    count_at = formulas.counter(CongruenceSpec(12, (5, 5, 5), 0), "strict-order")
    assert read[12:] == [(12, 3, 1)] and strict.cache_info().misses == 2
    assert [count_at(b) for b in range(12)] == named


def test_counter_matches_named_counters():
    # a counter built once per instance gives, at every target, the named
    # counter's result with the same residual bits, or its error type and
    # message: on a small grid, on the K3 instances (the same wrong integers
    # and errors on both paths) and on the errors met at a target.  A
    # distinct counter for an obstructed tuple is refused when it is built,
    # with the error the named counter raises at every target
    cases = []
    for n in (1, 2, 5, 8, 9, 12, 15):
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement((0, 1, 2, 3, 6), k):
                spec = CongruenceSpec(n, coeffs, 0)
                cases += [(spec, r) for r in ("all", "square", "distinct")]
                if len(set(spec.coeffs)) == 1:
                    cases.append((spec, "strict-order"))
        for sizes in ((1,), (2, 1), (2, 3), (1, 1, 2)):
            for coeffs in itertools.product((1, 2, 3), repeat=len(sizes)):
                cases.append((BlockSpec(n, tuple(zip(sizes, coeffs)), 0), "blocks"))
    for n, blocks in ((18, ((8, 2), (8, 3), (8, 1))), (30, ((10, 2), (10, 3), (10, 5))),
                      (168, ((2, 2), (2, 4), (1, 6), (1, 8)))):
        cases.append((BlockSpec(n, blocks, 0), "blocks"))
    for spec, restriction in cases:
        try:
            count_at = formulas.counter(spec, restriction)
        except DomainError as exc:
            assert restriction == "distinct", (spec, restriction)
            count_at = None
            refused = (DomainError, str(exc))
        for b in range(spec.n):
            want = _outcome(lambda s: _named_counter(s, restriction), _at_target(spec, b))
            got = refused if count_at is None else _outcome(count_at, b)
            assert got == want, (spec, restriction, b)
    spec = CongruenceSpec(49, (1,) * 13, 1)
    assert _outcome(formulas.counter(spec, "square"), 1) == _outcome(formulas.square_count, spec)
    # a DomainError is raised when the counter is built, with the named
    # counter's message; a ConsistencyError at the target, on every call
    spec = CongruenceSpec(6, (2, 1), 1)
    with pytest.raises(DomainError) as refused:
        formulas.counter(spec, "distinct")
    assert _outcome(formulas.distinct_count_gcd_condition, spec) == (DomainError, str(refused.value))
    count_at = formulas.counter(BlockSpec(168, ((2, 2), (2, 4), (1, 6), (1, 8)), 0), "blocks")
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            count_at(1)
    # a BudgetExceededError, too, is raised when the counter is built
    short = OracleBudget(oracles.state_count(CongruenceSpec(8, (1, 3), 0), "square") - 1)
    with pytest.raises(BudgetExceededError):
        formulas.counter(CongruenceSpec(8, (1, 3), 0), "square", short)
    assert short.used == 0


# ROADMAP K3: the float routes' pinned faults against exact references.  The
# marks are strict, so the mend of a route reports its cases as failures
# until it removes their marks.
_K3 = "ROADMAP K3: a float route rounds to a wrong integer or raises"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_K3)
@pytest.mark.parametrize("spec", [
    CongruenceSpec(27, (1, 2) * 8, 4), CongruenceSpec(49, (1,) * 13, 1),
], ids=["n27", "n49"])
def test_k3_square_count_is_exact(spec):
    want = oracles.oracle_histogram(spec, "square", OracleBudget(10**30))[spec.b]
    assert formulas.square_count(spec).count == want


@pytest.mark.parametrize("n, blocks", [
    pytest.param(18, ((8, 2), (8, 3), (8, 1)), id="n18",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_K3)),
    pytest.param(30, ((10, 2), (10, 3), (10, 5)), id="n30",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_K3)),
    pytest.param(168, ((2, 2), (2, 4), (1, 6), (1, 8)), id="n168",
                 marks=pytest.mark.xfail(strict=True, raises=ConsistencyError, reason=_K3)),
])
def test_k3_block_counts_are_exact(n, blocks):
    hist = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks", OracleBudget(10**30))
    assert [formulas.order_blocks_count(BlockSpec(n, blocks, b)).count for b in range(n)] == hist
