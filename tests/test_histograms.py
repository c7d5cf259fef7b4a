"""The oracle histograms: totals and degenerate sizes, and the front door
formulas.count against them."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lincong import formulas, oracles
from lincong.errors import BudgetExceededError, ConsistencyError, DomainError
from lincong.model import BlockSpec, CongruenceSpec

COEFF_RESTRICTIONS = ("all", "square", "strict-order", "distinct")


def front_door_matches(spec, restriction, hist):
    """formulas.count gives hist[b] at every target b, and a DomainError
    exactly where no closed form applies: strict order with unequal
    coefficients, and distinct with unequal coefficients that fail the
    subset-sum hypothesis."""
    unequal = len(set(spec.coeffs)) > 1
    if restriction == "distinct":
        unequal = unequal and formulas.subset_sum_obstruction(spec.n, spec.coeffs) is not None
    no_route = unequal and restriction in ("strict-order", "distinct")
    shape = spec.blocks if isinstance(spec, BlockSpec) else spec.coeffs
    for b in range(spec.n):
        at_b = type(spec)(spec.n, shape, b)
        if no_route:
            with pytest.raises(DomainError):
                formulas.count(at_b, restriction)
        else:
            assert formulas.count(at_b, restriction).count == hist[b], b
    return not no_route


def test_histogram_totals():
    # the histogram total is exactly the state count the budget is charged,
    # and each entry the front door's count wherever it has a route
    routed = set()
    for n in (1, 2, 9, 12):
        for coeffs in ((1, 2, 4), (3, 3), (0, 5, 1, 7), (1, 1, 1), (1, 4), (2, 2)):
            spec = CongruenceSpec(n, coeffs, 0)
            for restriction in COEFF_RESTRICTIONS:
                hist = oracles.oracle_histogram(spec, restriction)
                assert len(hist) == n
                assert sum(hist) == oracles.state_count(spec, restriction), (n, coeffs, restriction)
                if front_door_matches(spec, restriction, hist):
                    routed.add((restriction, len(set(spec.coeffs)) == 1))
        for blocks in (((2, 1), (3, 2)), ((1, 0),), ((3, 3), (1, 1), (2, 6))):
            spec = BlockSpec(n, blocks, 0)
            hist = oracles.oracle_histogram(spec, "blocks")
            assert len(hist) == n
            assert sum(hist) == oracles.state_count(spec, "blocks"), (n, blocks)
            assert front_door_matches(spec, "blocks", hist)
    # every route ran, distinct's on both sides of the equal-coefficient test
    assert routed == {(r, equal) for r in COEFF_RESTRICTIONS for equal in (True, False)} - {
        ("strict-order", False)}
    # one slot width per histogram, the byte length of the total: strict
    # order at n = 12, k = 11 is a weak chain over 2 values, whose rows hold
    # at most the final C(12, 11) = 12.  With every coefficient 0 the whole
    # total sits in slot 0, here on both sides of the one-byte boundary
    spec = CongruenceSpec(12, (1,) * 11, 0)
    assert oracles.oracle_histogram(spec, "strict-order") == [1] * 12
    for spec, restriction in (
        (CongruenceSpec(12, (0,) * 11, 0), "strict-order"),
        (CongruenceSpec(7, (0,) * 7, 0), "distinct"),
        (CongruenceSpec(2, (0,) * 12, 0), "all"),
        (BlockSpec(3, ((4, 0), (2, 0)), 0), "blocks"),
        (CongruenceSpec(255, (0,), 0), "strict-order"),  # total 255
        (CongruenceSpec(256, (0,), 0), "strict-order"),  # 256
        (CongruenceSpec(255, (0,), 0), "all"),
        (CongruenceSpec(256, (0,), 0), "all"),
        (CongruenceSpec(16, (0, 0), 0), "distinct"),  # P(16, 2) = 240
        (CongruenceSpec(17, (0, 0), 0), "distinct"),  # P(17, 2) = 272
        (BlockSpec(255, ((1, 0),), 0), "blocks"),  # 255
        (BlockSpec(16, ((1, 0), (1, 0)), 0), "blocks"),  # 16 * 16 = 256
    ):
        hist = oracles.oracle_histogram(spec, restriction)
        assert hist == [oracles.state_count(spec, restriction)] + [0] * (spec.n - 1), restriction
    # test_oracles.test_state_counts pins the other restrictions' counts
    spec = CongruenceSpec(9, (1, 2, 4), 0)
    assert oracles.state_count(spec, "square") == len({x * x % 9 for x in range(9)}) ** 3


def test_strict_more_vars_than_residues():
    assert oracles.oracle_histogram(CongruenceSpec(3, (1, 1, 1, 1), 0), "strict-order") == [0, 0, 0]
    assert oracles.oracle_histogram(CongruenceSpec(2, (1, 1, 1), 0), "distinct") == [0, 0]


@st.composite
def _front_door_case(draw):
    """(restriction, n, coefficients or blocks, b) with n <= 30 and k <= 5,
    coefficients and targets outside [0, n), block sizes from 0, and often
    equal coefficients, so strict order and both distinct routes are met."""
    restriction = draw(st.sampled_from(oracles.RESTRICTIONS))
    n = draw(st.integers(1, 30))
    value = st.integers(-2 * n, 3 * n)
    b = draw(value)
    if restriction == "blocks":
        sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        sizes[-1] = max(0, min(sizes[-1], 5 - sum(sizes[:-1])))
        return restriction, n, [(s, draw(value)) for s in sizes], b
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return restriction, n, [draw(value)] * k, b
    coeffs = draw(st.lists(value, min_size=k, max_size=k))
    return restriction, n, coeffs, b


def test_front_door_matches_the_oracle_or_refuses():
    # every draw counts what the oracle histogram gives at b mod n, or raises
    # one of the three typed errors (a block of size 0 is a DomainError)
    counted = set()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_front_door_case())
    @example(("distinct", 6, [2, 2], -6))  # equal coefficients that fail the subset test
    @example(("distinct", 30, [7] * 5, 61))
    @example(("distinct", 7, [-6, 9, 3], 12))  # the subset-sum hypothesis holds
    @example(("blocks", 12, [(0, 1), (2, 5)], 3))
    def check(case):
        restriction, n, shape, b = case
        try:
            spec = (BlockSpec if restriction == "blocks" else CongruenceSpec)(n, shape, b)
            got = formulas.count(spec, restriction)
        except (DomainError, BudgetExceededError, ConsistencyError):
            return
        assert got.count == oracles.oracle_histogram(spec, restriction)[b % n], case
        counted.add((restriction, len(set(spec.coeffs)) == 1))

    check()
    assert {r for r, _ in counted} == set(oracles.RESTRICTIONS)
    assert {("distinct", True), ("distinct", False)} <= counted
