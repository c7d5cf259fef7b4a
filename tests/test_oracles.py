"""The oracles themselves: the package's exact histograms.

These are the package's ground truth, so they get their own independent
checks: tiny itertools-based reference counts, a generating-function ring
kept here as a second, unrelated method, and representation invariance.
"""

import argparse
import functools
import itertools
import math
import random
import time

import pytest

from lincong import characters, cli, formulas, oracles
from lincong.errors import BudgetExceededError, DomainError
from lincong.model import BlockSpec, CongruenceSpec, OracleBudget


@functools.cache
def admitted_tuples(reps, k, restriction):
    """The k-tuples over ``reps`` that the restriction admits: each k-subset
    in decreasing order for strict order, else a filter over all k-tuples."""
    if restriction == "strict-order":
        return [c[::-1] for c in itertools.combinations(sorted(reps), k)]
    out = []
    for tup in itertools.product(reps, repeat=k):
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


def gf_rows(n, parts, k, distinct):
    """Rows 0..k of the product over the multiset ``parts`` of (1 + z q^a)
    when ``distinct``, else of 1/(1 - z q^a), in Z[q]/(q^n - 1)[z] truncated
    at z^k: rows[i][r] counts the ways to pick i of the parts, without or
    with repetition, summing to r mod n."""
    rows = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(k)]
    for a in parts:
        # descending i takes each part at most once, ascending i lets it repeat
        for i in range(k, 0, -1) if distinct else range(1, k + 1):
            lower, row = rows[i - 1], rows[i]
            for r in range(n):
                row[r] += lower[(r - a) % n]
    return rows


def cyclic_convolution(n, vectors):
    out = [1] + [0] * (n - 1)
    for vec in vectors:
        out = [sum(out[r] * vec[(c - r) % n] for r in range(n)) for c in range(n)]
    return out


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
    # distinct: k = 1 is the slot's count vector, k = 2 adds one transfer to
    # the seeded one-position states; strict order: a chain of one or two
    # rows over n - k + 1 values
    for n in (1, 2, 7, 30, 97):
        for coeffs in ((3,), (2, 5), (6, 1)):
            coeffs = tuple(a % n for a in coeffs)
            for restriction in ("strict-order", "distinct"):
                got = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), restriction)
                assert got == reference_histogram(n, coeffs, restriction), (n, coeffs, restriction)


def test_distinct_at_one_variable_is_the_all_histogram():
    # every 1-tuple is distinct, so the histogram is the count vector of
    # a*x over [0, n), not a DP that adds n seeds into n*W bytes (O(n^2*W))
    n = 10**5
    for a in (1, 6):
        spec = CongruenceSpec(n, (a,), 0)
        start = time.perf_counter()
        distinct = oracles.oracle_histogram(spec, "distinct")
        elapsed = time.perf_counter() - start
        assert distinct == oracles.oracle_histogram(spec, "all"), a
        g = math.gcd(a, n)
        assert distinct == [0 if r % g else g for r in range(n)], a
        assert elapsed < 0.5, (a, elapsed)


def test_distinct_dp_near_k_equals_n():
    # k close to n: most states of the distinct DP are dead there and skipped
    rng = random.Random(15)
    for n, k in ((7, 7), (8, 6), (8, 7), (8, 8)):
        coeffs = tuple(rng.randrange(n) for _ in range(k))
        want = [0] * n
        for tup in itertools.permutations(range(n), k):
            want[sum(a * x for a, x in zip(coeffs, tup)) % n] += 1
        got = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "distinct")
        assert got == want, (n, coeffs)
    coeffs = tuple(rng.randrange(10) for _ in range(10))
    hist = oracles.oracle_histogram(CongruenceSpec(10, coeffs, 0), "distinct")
    assert sum(hist) == math.factorial(10), coeffs


def test_strict_order_unequal_coefficients_against_reference():
    # seeded coefficient tuples past the exhaustive grid above, up to k = n
    rng = random.Random(12)
    for n in (7, 11, 12):
        for k in (1, 2, 3, 4, n - 1, n):
            for _ in range(6):
                coeffs = tuple(rng.randrange(n) for _ in range(k))
                got = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "strict-order")
                assert got == reference_histogram(n, coeffs, "strict-order"), (n, coeffs)


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


def test_oracle_solutions_match_a_filter_of_every_tuple():
    # the pruned walk lists exactly the tuples a filter of itertools.product
    # keeps, in its order, for every target and limit (34804 listings); at
    # even n the coefficient 2 leaves targets with no solution
    for n in (*range(1, 40), 45, 64, 81):
        for restriction, domain in (("square", characters.squares(n)), ("all", range(n))):
            for k in (1, 2, 3):
                if len(domain) ** k > (1000 if restriction == "square" else 300):
                    continue
                for coeffs in itertools.combinations_with_replacement(sorted({2, n - 1}), k):
                    listed = [[] for _ in range(n)]
                    for tup in itertools.product(domain, repeat=k):
                        listed[sum(a * x for a, x in zip(coeffs, tup)) % n].append(tup)
                    for b in range(n):
                        spec = CongruenceSpec(n, coeffs, b)
                        for limit in (None, 0, 1, 3):
                            got = oracles.oracle_solutions(spec, restriction, limit=limit)
                            assert got == listed[b][:limit], (spec, restriction, limit)


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
    # one counter per case; the named lehmer_count is checked too up to n = 10
    for n in range(1, 31):
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement(range(n), k):
                spec = CongruenceSpec(n, coeffs, 0)
                hist = oracles.oracle_histogram(spec, "all")
                count_at = formulas.counter(spec, "all")
                for b in range(n):
                    assert hist[b] == count_at(b).count, (n, coeffs, b)
                    if n <= 10:
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
    for restriction in ("no-such-restriction", "strict"):
        with pytest.raises(DomainError):
            oracles.state_count(spec, restriction)


def test_gf_matches_strict_oracle():
    # n = 97 and 200 give packed slots of one to four bytes
    grid = [(n, range(n)) for n in range(1, 21)] + [(97, (1, 5, 10)), (200, (1, 5, 10))]
    for n, a_values in grid:
        for a in a_values:
            rows = gf_rows(n, [a * j % n for j in range(1, n + 1)], 4, distinct=True)
            for k in (1, 2, 3, 4):
                hist = oracles.oracle_histogram(CongruenceSpec(n, (a,) * k, 0), "strict-order")
                assert rows[k] == hist, (n, a, k)


def test_gf_weak_blocks_cross_check():
    # convolve the two weak-order block factors of 2(x1+x2)+3(x3+x4) mod 6
    n = 6
    u1 = gf_rows(n, [2 * j % n for j in range(1, n + 1)], 2, False)[2]
    u2 = gf_rows(n, [3 * j % n for j in range(1, n + 1)], 2, False)[2]
    conv = cyclic_convolution(n, [u1, u2])
    assert conv == oracles.oracle_histogram(BlockSpec(n, ((2, 2), (2, 3)), 0), "blocks")
    assert conv[5] == 63
    # every single-block row with n <= 24 and size <= 4
    for n in range(1, 25):
        for a in range(n):
            rows = gf_rows(n, [a * x % n for x in range(n)], 4, False)
            for size in (1, 2, 3, 4):
                hist = oracles.oracle_histogram(BlockSpec(n, ((size, a),), 0), "blocks")
                assert hist == rows[size], (n, size, a)
    # entries past 2^53 (n = 18) and 2^64 (n = 30); no solution at odd targets (n = 168)
    hists = {}
    for n, blocks in [(18, ((8, 2), (8, 3), (8, 1))), (30, ((10, 2), (10, 3), (10, 5))),
                      (168, ((2, 2), (2, 4), (1, 6), (1, 8)))]:
        hists[n] = oracles.oracle_histogram(BlockSpec(n, blocks, 0), "blocks", OracleBudget(10**30))
        rows = [gf_rows(n, [a * x % n for x in range(n)], size, False)[size] for size, a in blocks]
        assert hists[n] == cyclic_convolution(n, rows), n
    assert max(hists[18]).bit_length() == 56 and max(hists[30]).bit_length() == 83
    assert not any(hists[168][1::2]) and all(hists[168][::2])


def test_oracle_square_against_reference():
    # the square set is recomputed here, apart from characters.squares
    for n in (3, 5, 8, 9, 12, 15, 27):
        squares = sorted({x * x % n for x in range(n)})
        for k in (1, 2, 3):
            for coeffs in itertools.combinations_with_replacement((1, 2, 3, 5), k):
                hist = oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "square")
                assert hist == reference_histogram(n, coeffs, "all", squares), (n, coeffs)
    assert oracles.oracle_count(CongruenceSpec(9, (1, 1), 3), "square") == 0
    assert oracles.oracle_count(CongruenceSpec(9, (1, 1), 2), "square") == 3


PIECES = (oracles._fold, oracles._count_vector, oracles._chain, oracles._strict_sums,
          oracles._moves, oracles._orbit_dp)


def clear_pieces():
    for piece in PIECES:
        piece.cache_clear()


def test_strict_push_forward_equals_the_direct_chain():
    # equal coefficients push the a = 1 sums forward to a*s; the reference
    # is the chain over (a,)*k with its own offset, unpacked here
    for n in range(1, 21):
        for k in range(1, min(n, 5) + 1):
            width = (math.comb(n, k).bit_length() + 7) // 8
            for a in range(n):
                packed = oracles._chain(n, width, (a,) * k, n - k + 1, a * k * (k - 1) // 2)
                data = packed.to_bytes(n * width, "little")
                direct = [int.from_bytes(data[i:i + width], "little")
                          for i in range(0, n * width, width)]
                hist = oracles.oracle_histogram(CongruenceSpec(n, (a,) * k, 0), "strict-order")
                assert hist == direct, (n, k, a)


def test_piece_caches_key_on_width_domain_and_size():
    # interleaved specs share n and a coefficient prefix but differ in slot
    # width (k = 2 packs 144 states in 1 byte, k = 3 packs 1728 in 2),
    # domain or block size, so a piece cached under too loose a key gives a
    # histogram other than the one built from empty caches
    n = 12
    cases = [
        (CongruenceSpec(n, (1, 5), 0), "all"),
        (CongruenceSpec(n, (1, 5, 7), 0), "all"),
        (CongruenceSpec(n, (1, 5), 0), "square"),
        (CongruenceSpec(n, (1, 5, 7), 0), "square"),
        (BlockSpec(n, ((2, 1), (1, 5)), 0), "blocks"),
        (BlockSpec(n, ((3, 1), (1, 5)), 0), "blocks"),
        (CongruenceSpec(n, (5, 5), 0), "strict-order"),
        (CongruenceSpec(n, (5, 5, 5), 0), "strict-order"),
        (CongruenceSpec(n, (1, 5), 0), "distinct"),
        (CongruenceSpec(n, (1, 5, 7), 0), "distinct"),
    ]
    fresh = []
    for spec, restriction in cases:
        clear_pieces()
        fresh.append(oracles.oracle_histogram(spec, restriction))
    clear_pieces()
    for _ in range(2):
        for (spec, restriction), hist in zip(cases, fresh):
            assert oracles.oracle_histogram(spec, restriction) == hist, (spec, restriction)
    # distinct fixes W by n and k, so only a direct call can give one orbit
    # key two widths: P(7, 2) = 42 packs in 1 byte or in 2
    for width in (1, 2):
        packed = oracles._orbit_dp(7, width, (1, 2))
        assert oracles._unpack(7, width, packed) == reference_histogram(7, (1, 2), "distinct")


def test_cached_pieces_are_charged_on_every_call():
    # a histogram from cached pieces charges state_count as a build does,
    # and a refused charge returns nothing and reads no cache
    cases = [
        (CongruenceSpec(12, (1, 5, 7), 0), "all"),
        (CongruenceSpec(12, (1, 5, 7), 0), "square"),
        (CongruenceSpec(12, (5, 5, 5), 0), "strict-order"),
        (CongruenceSpec(12, (1, 5, 7), 0), "distinct"),
        (BlockSpec(12, ((2, 1), (1, 5)), 0), "blocks"),
    ]
    for spec, restriction in cases:
        total = oracles.state_count(spec, restriction)
        budget = OracleBudget(2 * total)
        first = oracles.oracle_histogram(spec, restriction, budget)
        assert budget.used == total
        assert oracles.oracle_histogram(spec, restriction, budget) == first
        assert budget.used == 2 * total
        infos = [piece.cache_info() for piece in PIECES]
        with pytest.raises(BudgetExceededError):
            oracles.oracle_histogram(spec, restriction, budget)
        assert budget.used == 2 * total
        assert [piece.cache_info() for piece in PIECES] == infos, restriction


def piece_bound(piece):
    """The most entries a piece may keep: the orbit DPs have their own bound."""
    return oracles._ORBITS if piece is oracles._orbit_dp else oracles._PIECES


def test_piece_caches_stay_bounded(monkeypatch):
    for piece in PIECES:
        assert 0 < piece.cache_info().maxsize <= piece_bound(piece)
    for n in range(1, oracles._PIECES + 8):  # more keys than any piece keeps
        for restriction in ("all", "square", "strict-order", "distinct"):
            oracles.oracle_histogram(CongruenceSpec(n, (1, 2 % n, 2 % n), 0), restriction)
            oracles.oracle_histogram(CongruenceSpec(n, (n - 1,) * 2, 0), restriction)
        oracles.oracle_histogram(BlockSpec(n, ((2, 1), (1, n + 1)), 0), "blocks")
    # (1, c) and (1, c^-1) share a key: 1499 keys, more than the orbit DPs keep
    oracles._orbit_dp.cache_clear()
    for n in range(2, 64):
        for c in range(n):
            oracles.oracle_histogram(CongruenceSpec(n, (1, c), 0), "distinct")
    assert oracles._orbit_dp.cache_info().misses > oracles._ORBITS
    for piece in PIECES:
        info = piece.cache_info()
        assert 0 < info.currsize <= info.maxsize
    # a DP of more than _ORBIT_BYTES packed bytes is built and not kept
    spec = CongruenceSpec(13, (1, 2, 5), 0)
    clear_pieces()
    monkeypatch.setattr(oracles, "_ORBIT_BYTES", 13 * 2 - 1)  # P(13, 3) = 1716: W = 2
    assert oracles.oracle_histogram(spec, "distinct") == reference_histogram(13, (1, 2, 5),
                                                                             "distinct")
    assert oracles._orbit_dp.cache_info().currsize == 0


def unit_of_largest_order(n):
    """A unit mod n whose powers reach the most residues."""
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    return max(units, key=lambda u: next(e for e in range(1, n + 1) if pow(u, e, n) == 1 % n))


def test_distinct_histograms_shared_across_a_unit_orbit():
    # one DP per unit orbit serves every tuple in it.  u*a (u of the largest
    # order: 4, 6, 10 and 12 at n = 5, 7, 11 and 13) is built before a and
    # after it, each time from empty caches, so both read the orbit's DP
    # cold and warm.  The reference is brute force over every multiset; it
    # reads t only through gcd(t, n), which is why the orbit shares one
    # histogram and not only one up to t -> u*t
    grid = dict.fromkeys([(n, k) for n in (5, 7, 11, 13) for k in (1, 2, 3)]
                         + [(n, k) for n in range(1, 8) for k in (1, 2, 3, 4)])
    for n, k in grid:
        u = unit_of_largest_order(n)
        multisets = list(itertools.combinations_with_replacement(range(n), k))
        brute = {coeffs: reference_histogram(n, coeffs, "distinct") for coeffs in multisets}
        for coeffs in multisets:
            want = brute[coeffs]
            assert all(want[t] == want[math.gcd(t, n) % n] for t in range(n)), (n, coeffs)
            moved = tuple(u * a % n for a in coeffs)
            for pair in ((moved, coeffs), (coeffs, moved)):
                clear_pieces()
                for tup in pair:
                    got = oracles.oracle_histogram(CongruenceSpec(n, tup, 0), "distinct")
                    assert got == brute[tuple(sorted(tup))], (n, coeffs, u, tup)
    # no unit entry: each tuple is its own key; k > n is the zero histogram
    for n, coeffs in ((1, (0,)), (6, (2, 4)), (9, (3, 6)), (9, (6, 0, 3)), (2, (1, 1, 0)),
                      (3, (2, 1, 0, 1))):
        want = reference_histogram(n, coeffs, "distinct")
        clear_pieces()
        for _ in range(2):
            assert oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "distinct") == want


def test_orbit_keys_and_one_dp_per_key_on_the_distinct_grid(monkeypatch):
    # every unit multiple u*a of a grid tuple with a unit entry has a's key,
    # which is the least sorted unit multiple of a; a cold pass over the
    # grid builds one DP per key of a tuple with distinct solutions
    args = argparse.Namespace(n_max=12, n_list=None, k_max=4, jobs=1, budget=None)
    grid = [(n, coeffs) for n, (_, coeffs) in cli.MODE_TABLE["distinct"].verify_grid(args)]
    orbits = set()
    for n, coeffs in grid:
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        key = oracles._orbit_key(n, coeffs)
        if any(math.gcd(a, n) == 1 for a in coeffs):
            assert key == min(tuple(sorted(u * a % n for a in coeffs)) for u in units)
            for u in units:
                assert oracles._orbit_key(n, tuple(u * a % n for a in coeffs)) == key
        else:
            assert key == tuple(sorted(coeffs))
        if math.perm(n, len(coeffs)):
            orbits.add((n, key))
    value_dp, built = oracles._value_dp, []

    def counted(n, width, coeffs):
        built.append((n, coeffs))
        return value_dp(n, width, coeffs)

    monkeypatch.setattr(oracles, "_value_dp", counted)
    clear_pieces()
    for n, coeffs in grid:
        oracles.oracle_histogram(CongruenceSpec(n, coeffs, 0), "distinct")
    assert len(built) == len(set(built)) == len(orbits) == 149 and set(built) == orbits
