"""The oracles themselves: histograms and generating functions.

These are the package's ground truth, so they get their own independent
checks: tiny itertools-based reference counts, cross-agreement between the
unrelated methods, and representation invariance.
"""

import functools
import itertools
import math

import pytest

from lincong import formulas, oracles
from lincong.errors import BudgetExceededError, DomainError
from lincong.model import BlockSpec, CongruenceSpec, OracleBudget


@functools.cache
def admitted_tuples(reps, k, restriction):
    """Filter-based: the k-tuples over ``reps`` that the restriction admits."""
    out = []
    for tup in itertools.product(reps, repeat=k):
        if restriction == "strict-order" and not all(tup[i] > tup[i + 1] for i in range(k - 1)):
            continue
        if restriction == "distinct" and len(set(tup)) != k:
            continue
        out.append(tup)
    return out


def reference_histogram(n, coeffs, restriction, representatives=None):
    """Reference histogram over an explicit representative set: entry b
    counts the admitted tuples with a1*x1+...+ak*xk = b (mod n)."""
    reps = tuple(range(n) if representatives is None else representatives)
    hist = [0] * n
    for tup in admitted_tuples(reps, len(coeffs), restriction):
        hist[sum(a * x for a, x in zip(coeffs, tup)) % n] += 1
    return hist


def reference_count(n, coeffs, b, restriction, representatives=None):
    return reference_histogram(n, coeffs, restriction, representatives)[b % n]


def reference_blocks_count(n, blocks, b, representatives=None):
    reps = list(range(n)) if representatives is None else list(representatives)
    coeffs = [a for size, a in blocks for _ in range(size)]
    count = 0
    for tup in itertools.product(reps, repeat=len(coeffs)):
        pos = 0
        ok = True
        for size, _ in blocks:
            part = tup[pos : pos + size]
            if any(part[i] < part[i + 1] for i in range(size - 1)):
                ok = False
                break
            pos += size
        if ok and sum(a * x for a, x in zip(coeffs, tup)) % n == b % n:
            count += 1
    return count


RESTRICTIONS = ("all", "strict-order", "distinct")


def test_oracle_against_reference():
    for n in (1, 2, 3, 5, 6):
        for k in (1, 2, 3, 4):
            # k = 4 reaches 16 states of the distinct DP; all is one convolution per slot
            restrictions = ("strict-order", "distinct") if k == 4 else RESTRICTIONS
            for coeffs in itertools.product(range(n), repeat=k):
                for restriction in restrictions:
                    want = reference_histogram(n, coeffs, restriction)
                    got = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), restriction)
                    assert got == want, (coeffs, restriction)


def test_value_dp_small_k_against_reference():
    # k = 1 ends on the seeded one-position state; k = 2 adds one transfer
    for n in (1, 2, 7, 30, 97):
        for coeffs in ((3,), (2, 5), (6, 1)):
            coeffs = tuple(a % n for a in coeffs)
            for restriction in ("strict-order", "distinct"):
                got = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), restriction)
                assert got == reference_histogram(n, coeffs, restriction), (n, coeffs, restriction)


def test_oracle_blocks_against_reference():
    shapes = [((2, 1),), ((1, 2), (2, 1)), ((2, 2), (1, 3)), ((3, 1),), ((1, 0), (2, 5)),
              ((2, 3), (1, 1), (1, 4))]
    for n in (1, 2, 3, 4, 5, 6):
        for blocks in shapes:
            hist = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks")
            for b in range(n):
                assert hist[b] == reference_blocks_count(n, blocks, b)


def test_oracle_square_examples():
    assert oracles.oracle_count(CongruenceSpec(27, (1, 1), 1), "square") == 4
    sols = oracles.oracle_solutions(CongruenceSpec(27, (1, 1), 1), "square")
    assert set(sols) == {(1, 0), (0, 1), (9, 19), (19, 9)}
    assert oracles.oracle_count(CongruenceSpec(6, (1,), 2), "all") == 1
    assert oracles.oracle_count(BlockSpec(6, ((2, 2), (2, 3)), 5), "blocks") == 63


def test_oracle_solutions_limit():
    spec = CongruenceSpec(27, (1, 1), 1)
    every = oracles.oracle_solutions(spec, "square")
    for limit in (0, 1, 3, 4, 5):
        assert oracles.oracle_solutions(spec, "square", limit=limit) == every[:limit]
    budget = OracleBudget()
    with pytest.raises(DomainError):
        oracles.oracle_solutions(spec, "square", budget, limit=-3)
    assert budget.used == 0


def test_representative_independence():
    # Counts agree whether residues are represented as [0, n) or [1, n] where
    # that is a theorem: distinct solutions for any coefficients, and strict
    # order for equal coefficients (a strictly ordered tuple is then a k-subset
    # of Z_n, whose sum mod n does not depend on the representatives).  Strict
    # order is defined on [0, n) and depends on the representatives otherwise;
    # test_strict_order_depends_on_representatives pins that.
    for n in (3, 5, 7, 8):
        shifted = list(range(1, n + 1))
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement(range(n), k):
                restrictions = ["distinct"]
                if len(set(coeffs)) == 1:
                    restrictions.append("strict-order")
                for restriction in restrictions:
                    hist = oracles.oracle_histogram(
                        CongruenceSpec(n, coeffs, 0), restriction
                    )
                    for b in range(n):
                        assert hist[b] == reference_count(
                            n, coeffs, b, restriction, representatives=shifted
                        )


def test_strict_order_depends_on_representatives():
    # unequal coefficients: the strict-order count on [0, n) differs from [1, n]
    hist = oracles.oracle_histogram(CongruenceSpec(3, (0, 1), 0), "strict-order")
    assert hist == [2, 1, 0]
    shifted = [reference_count(3, (0, 1), b, "strict-order", [1, 2, 3]) for b in range(3)]
    assert shifted == [0, 2, 1]


def test_oracle_matches_lehmer():
    for n in range(1, 31):
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement(range(n), k):
                hist = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "all")
                for b in range(n):
                    expected = formulas.lehmer_count(CongruenceSpec(n, coeffs, b))
                    assert hist[b] == expected.count, (n, coeffs, b)


def test_coefficient_permutation_invariance():
    for coeffs in [(1, 2, 3), (0, 2, 4), (5, 1, 1)]:
        for perm in itertools.permutations(coeffs):
            base = oracles.oracle_histogram(CongruenceSpec(7, coeffs, 0), "distinct")
            other = oracles.oracle_histogram(CongruenceSpec(7, perm, 0), "distinct")
            assert base == other


def test_budget_errors_are_clean():
    budget = OracleBudget(max_states=10)
    spec = CongruenceSpec(5, (1, 1, 1), 0)
    with pytest.raises(BudgetExceededError):
        oracles.oracle_count(spec, "all", budget)
    assert budget.used == 0  # failed charge leaves the budget untouched
    assert oracles.oracle_count(spec, "strict-order", budget) == 2
    assert budget.used == math.comb(5, 3)


def test_budget_accumulates():
    budget = OracleBudget(max_states=300)
    spec = CongruenceSpec(5, (1, 1, 1), 0)
    oracles.oracle_count(spec, "all", budget)  # 125 states
    oracles.oracle_count(spec, "all", budget)  # 250 states
    with pytest.raises(BudgetExceededError):
        oracles.oracle_count(spec, "all", budget)


def test_state_counts():
    spec = CongruenceSpec(10, (1, 1, 1), 0)
    assert oracles.state_count(spec, "all") == 1000
    assert oracles.state_count(spec, "strict-order") == math.comb(10, 3)
    assert oracles.state_count(spec, "distinct") == 10 * 9 * 8
    bspec = BlockSpec(10, ((2, 1), (3, 2)), 0)
    assert oracles.state_count(bspec, "blocks") == math.comb(11, 2) * math.comb(12, 3)
    with pytest.raises(DomainError):
        oracles.state_count(spec, "blocks")
    with pytest.raises(DomainError):
        oracles.state_count(spec, "no-such-restriction")


def test_gf_count_examples():
    assert oracles.gf_count(5, range(5), 2, 0, distinct=True) == 2
    assert oracles.gf_count(4, range(4), 1, 3, distinct=False) == 1


def test_gf_matches_strict_oracle():
    # n = 97 and 200 give the packed DP slots of one to four bytes
    grid = [(n, range(n)) for n in range(1, 21)] + [(97, (1, 5, 10)), (200, (1, 5, 10))]
    for n, a_values in grid:
        for a in a_values:
            parts = [a * j % n for j in range(1, n + 1)]
            for k in (1, 2, 3, 4):
                table = oracles.gf_table(n, parts, k, distinct=True)
                hist = oracles.oracle_histogram(
                    CongruenceSpec(n, (a,) * k, 0), "strict-order"
                )
                sign = -1 if k % 2 else 1
                for b in range(n):
                    assert sign * table.coefficient(k, b) == hist[b], (n, a, k, b)


def test_gf_weak_blocks_cross_check():
    # convolve the two weak-order block factors of 2(x1+x2)+3(x3+x4) mod 6
    n = 6
    u1 = [oracles.gf_count(n, [2 * j % n for j in range(1, n + 1)], 2, c, False) for c in range(n)]
    u2 = [oracles.gf_count(n, [3 * j % n for j in range(1, n + 1)], 2, c, False) for c in range(n)]
    conv = [sum(u1[r] * u2[(c - r) % n] for r in range(n)) for c in range(n)]
    hist = oracles.oracle_histogram(BlockSpec(n, ((2, 2), (2, 3)), 0), "blocks")
    assert conv == hist
    assert conv[5] == 63


def test_oracle_square_against_reference():
    # the square set is recomputed here, apart from characters.square_profile
    for n in (3, 5, 8, 9, 12, 15, 27):
        squares = sorted({x * x % n for x in range(n)})
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement((1, 2, 3, 5), k):
                hist = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "square")
                assert hist == reference_histogram(n, coeffs, "all", squares), (n, coeffs)
    assert oracles.oracle_count(CongruenceSpec(9, (1, 1), 3), "square") == 0
    assert oracles.oracle_count(CongruenceSpec(9, (1, 1), 2), "square") == 3


def test_cyclic_poly_validation():
    with pytest.raises(DomainError):
        oracles.CyclicPoly(0, 3)
    poly = oracles.CyclicPoly(4, 2)
    poly.mul_one_minus_zq(1)
    poly.mul_one_minus_zq(3)
    # (1 - z q)(1 - z q^3) = 1 - z(q + q^3) + z^2 q^4; q^4 wraps to q^0
    assert poly.coefficient(0, 0) == 1
    assert poly.coefficient(1, 1) == -1 and poly.coefficient(1, 3) == -1
    assert poly.coefficient(2, 0) == 1


def test_gf_zero_when_supply_exhausted():
    # picking 2 distinct positions from a single-element part list is impossible
    assert oracles.gf_count(5, [3], 2, 1, distinct=True) == 0
    # but repetition allows it on the weak path
    assert oracles.gf_count(5, [3], 2, 1, distinct=False) == 1
