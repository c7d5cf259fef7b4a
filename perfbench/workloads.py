"""Seeded inputs for the three workloads and the expected result of each
operation.

An operation is a JSON-ready dict whose ``kind`` names the counter it calls
(see worker.calls).  The same seed gives the same operations, and every seed
gives the same number of operations, so that the share of failed operations
does not depend on the seed.  Sweeps over every target b keep their length
fixed in one of two ways: the modulus is fixed and the seed draws the
coefficients, or the seed draws n from a pool of moduli that all divide a
sweep length P and the sweep covers P/n coefficient tuples.  Pool members
cost about the same, so the seed moves the time of a round little.

Operations tagged ``fault`` return a wrong count, or raise, at the commit
that defined the benchmark (see SQUARE_FAULTS and BLOCK_FAULTS).  Their
inputs do not depend on the seed.  They count as failed while the fault
lasts and stop failing once it is mended.
"""

from __future__ import annotations

import itertools
import math
import random

import references as ref

# ----------------------------------------------------------------------
# square-formula

# Each slot is a sweep length P and a pool of (n, k) members whose moduli all
# divide P (a pool of one fixes the modulus and lets the seed draw only the
# coefficients).  The seed picks one member, which sweeps every target of n
# for P/n seeded coefficient tuples of length k, so every member makes P
# calls.  k is set per member so that one call costs about the same in both
# members of a pool (measured in rounds of this workload): the seed then
# moves neither the round's time nor the distribution of call times that
# op_p50_ms and op_p90_ms are read from.  The largest (p^e)^k is 9**10, far
# from where the float rounding of the square counter goes wrong.
SQUARE_ODD_SLOTS = (
    (45, ((9, 10), (15, 10))),
    (55, ((5, 10), (11, 9))),
    # op_p90_ms falls inside this slot's calls, so its modulus is fixed.
    (273, ((13, 8),)),
    (125, ((5, 9), (125, 3))),
    (165, ((11, 8), (165, 7))),
    (81, ((9, 8), (81, 4))),
    (195, ((39, 7), (15, 8))),
    (189, ((63, 7), (27, 6))),
    (121, ((121, 3),)),
    (75, ((3, 9), (75, 6))),
    (49, ((7, 8), (49, 5))),
    (273, ((13, 7), (273, 6))),
    (169, ((169, 2),)),
    (273, ((21, 7), (91, 6))),
    (99, ((11, 7), (99, 6))),
    (81, ((9, 7), (81, 2))),
    (45, ((3, 8), (45, 6))),
    (275, ((25, 5), (275, 4))),
    (315, ((63, 5), (105, 5))),
    (77, ((11, 6), (77, 5))),
)
# Even moduli take the oracle-fallback route.  Pool members have the same
# number of squares mod n, so they enumerate the same number of tuples.
SQUARE_EVEN_SLOTS = (
    (48, ((12, 7), (16, 7))),
    (120, ((20, 5), (24, 5))),
)
SQUARE_FAULTS = (
    # n, coeffs, b: a target where the rounding returns a wrong integer.
    (27, (1, 2) * 8, 4),
    (49, (1,) * 13, 1),
)


def _coefficient(rng: random.Random, n: int) -> int:
    """A nonzero residue; unless n is prime, about one in three shares a
    prime factor with n."""
    primes = [p for p, _ in ref.prime_factors(n) if p < n]
    if primes and rng.random() < 1 / 3:
        return _sharing(rng, n, primes)
    return rng.randrange(1, n)


def _sharing(rng: random.Random, n: int, primes: list[int]) -> int:
    p = rng.choice(primes)
    return p * rng.randrange(1, n // p)


def _coefficients(rng: random.Random, n: int, k: int) -> list[int]:
    """k nonzero residues; unless n is prime, k // 3 of them, in seeded
    places, share a prime factor with n.  The count is fixed because the
    cost of a square count depends on it."""
    primes = [p for p, _ in ref.prime_factors(n) if p < n]
    sharing = k // 3 if primes else 0
    coeffs = [_sharing(rng, n, primes) for _ in range(sharing)]
    coeffs += [rng.randrange(1, n) for _ in range(k - sharing)]
    rng.shuffle(coeffs)
    return coeffs


def _square(n, coeffs, b):
    return {"kind": "square", "n": n, "coeffs": coeffs, "b": b}


def build_square(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for period, pool in SQUARE_ODD_SLOTS + SQUARE_EVEN_SLOTS:
        n, k = rng.choice(pool)
        for _ in range(period // n):
            ops += [_square(n, _coefficients(rng, n, k), b) for b in range(n)]
    for n, coeffs, b in SQUARE_FAULTS:
        ops.append({**_square(n, list(coeffs), b), "fault": "K3"})
    return ops


# ----------------------------------------------------------------------
# ordered-formula

# Mixed-gcd block instances: (n, block sizes), each swept over every target
# for BLOCK_INSTANCES seeded coefficient choices.  n is fixed per slot and
# divisible by 6, so a block of size 2 or 3 always has two admissible
# divisors and the loop over divisor tuples has the same length whatever the
# seed; the product of C(n + k_i - 1, k_i) stays below 10**13, far from
# where the float rounding goes wrong.
BLOCK_MIXED_SLOTS = (
    (120, (1, 2, 3)),
    (168, (2, 1, 1, 2)),
    (210, (1, 2, 3)),
    (252, (2, 2, 1)),
)
BLOCK_INSTANCES = 1
# Common-gcd instances take the exact single divisor sum: (pool, most blocks).
BLOCK_COMMON_SLOTS = (((96, 120), 4),)
BLOCK_FAULTS = (
    # n, blocks, targets, fault: K3 returns wrong integers at every listed
    # target; at n = 168 the count of every odd target is 0, and the float
    # residual, taken relative to max(1, |count|), raises ConsistencyError.
    (18, ((8, 2), (8, 3), (8, 1)), range(18), "K3"),
    (30, ((10, 2), (10, 3), (10, 5)), range(30), "K3"),
    (168, ((2, 2), (2, 4), (1, 6), (1, 8)), (1,), "zero-count"),
)
# The divisor-sum calls outnumber the slow block calls about five to one, so
# that op_p50_ms falls inside their time distribution and op_p90_ms inside
# the mixed-gcd block calls.
STRICT_CONFIGS = 100
DISTINCT_EQUAL_CONFIGS = 50
SAMPLED_TARGETS = 24
DISTINCT_GCD_KS = (2, 3, 4, 5, 6, 7, 8, 8) * 2
DISTINCT_GCD_TARGETS = 16
LEHMER_SLOTS = ((40, 48, 60, 80, 120, 240),) * 2


def _mixed_blocks(rng, n, sizes):
    # One block has a unit coefficient, so that every target has solutions.
    # (With a common factor g > 1 the targets prime to g have none, and the
    # counter then raises ConsistencyError: see BLOCK_FAULTS.)
    small = [d for d in ref.divisors_of(n) if 1 < d <= 6]
    gcds = [1] + [rng.choice(small) for _ in sizes[1:]]
    blocks = []
    for size, g in zip(sizes, gcds):
        while True:
            a = g * rng.randrange(1, n // g)
            if math.gcd(a, n) == g:
                break
        blocks.append([size, a])
    rng.shuffle(blocks)
    return blocks


def _common_blocks(rng, n, t_max):
    f = rng.choice([d for d in ref.divisors_of(n) if d <= 8])
    blocks = []
    for _ in range(rng.randrange(2, t_max + 1)):
        while True:
            a = f * rng.randrange(1, n // f)
            if math.gcd(a, n) == f:
                break
        blocks.append([rng.randrange(1, 4), a])
    return blocks


def _large_modulus(rng) -> int:
    """Log-uniform in [10**3, 10**9]; half of them rich in small factors,
    so that gcd(n, k) and the reduced target have divisors to sum over."""
    if rng.random() < 0.5:
        return int(10 ** rng.uniform(3, 9))
    while True:
        n = 2 ** rng.randrange(0, 8) * 3 ** rng.randrange(0, 5) * 5 ** rng.randrange(0, 4)
        n *= rng.randrange(1, 2000)
        if 10**3 <= n <= 10**9:
            return n


def _sampled_targets(rng, n, count):
    divs = ref.divisors_of(n)
    targets = [0, 1] + [rng.choice(divs) * rng.randrange(1, 4) for _ in range(count // 2)]
    while len(targets) < count:
        targets.append(rng.randrange(n))
    return [b % n for b in targets]


def _divisor_sum_ops(rng, kind, configs):
    ops = []
    for _ in range(configs):
        n = _large_modulus(rng)
        k = rng.randrange(1, 31)
        if rng.random() < 0.5:
            a = rng.randrange(1, n)
        else:
            a = rng.choice(ref.divisors_of(n)[1:]) * rng.randrange(1, 50) % n or 1
        for b in _sampled_targets(rng, n, SAMPLED_TARGETS):
            ops.append({"kind": kind, "n": n, "k": k, "a": a, "b": b})
    return ops


def _subset_hypothesis(n, coeffs) -> bool:
    k = len(coeffs)
    return all(
        math.gcd(sum(sub), n) == 1
        for size in range(1, k)
        for sub in itertools.combinations(coeffs, size)
    )


def _distinct_gcd_ops(rng):
    ops = []
    for k in DISTINCT_GCD_KS:
        while True:
            if rng.random() < 0.5:
                n = rng.choice((1009, 10007, 100003, 999983, 1000003))
            else:
                n = rng.choice((11, 13, 17, 19, 23)) * rng.choice((29, 31, 37, 101, 997))
            coeffs = [rng.randrange(1, n) for _ in range(k)]
            if rng.random() < 0.5:
                # Make the full sum share the largest prime factor with n,
                # so that both branches of the formula are taken.
                p = ref.prime_factors(n)[-1][0]
                coeffs[-1] = (coeffs[-1] - sum(coeffs)) % p + p * rng.randrange(0, n // p)
            if all(c % n for c in coeffs) and _subset_hypothesis(n, coeffs):
                break
        g = math.gcd(sum(coeffs), n)
        targets = [g * rng.randrange(0, n // g) for _ in range(DISTINCT_GCD_TARGETS // 2)]
        targets += [rng.randrange(n) for _ in range(DISTINCT_GCD_TARGETS - len(targets))]
        for b in targets:
            ops.append({"kind": "distinct_gcd", "n": n, "coeffs": coeffs, "b": b})
    return ops


def _lehmer_ops(rng):
    ops = []
    for pool in LEHMER_SLOTS:
        period = math.lcm(*pool)
        n = rng.choice(pool)
        for _ in range(period // n):
            coeffs = [_coefficient(rng, n) for _ in range(rng.randrange(1, 9))]
            for b in range(n):
                ops.append({"kind": "lehmer", "n": n, "coeffs": coeffs, "b": b})
    return ops


def build_ordered(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for n, sizes in BLOCK_MIXED_SLOTS:
        for _ in range(BLOCK_INSTANCES):
            blocks = _mixed_blocks(rng, n, sizes)
            ops += [{"kind": "blocks", "n": n, "blocks": blocks, "b": b} for b in range(n)]
    for pool, t_max in BLOCK_COMMON_SLOTS:
        period = math.lcm(*pool)
        n = rng.choice(pool)
        for _ in range(period // n):
            blocks = _common_blocks(rng, n, t_max)
            ops += [{"kind": "blocks", "n": n, "blocks": blocks, "b": b} for b in range(n)]
    ops += _divisor_sum_ops(rng, "strict", STRICT_CONFIGS)
    ops += _divisor_sum_ops(rng, "distinct_eq", DISTINCT_EQUAL_CONFIGS)
    ops += _distinct_gcd_ops(rng)
    ops += _lehmer_ops(rng)
    for n, blocks, targets, fault in BLOCK_FAULTS:
        for b in targets:
            ops.append(
                {"kind": "blocks", "n": n, "blocks": [list(x) for x in blocks], "b": b,
                 "fault": fault}
            )
    return ops


# ----------------------------------------------------------------------
# verify-sweep: one `lincong verify` per mode, on grids cut down from the
# defaults so that the six take about 7 s together, in clearly different
# times (op_p50_ms and op_p90_ms fall between the same modes every round).
# Only the square grid takes a modulus list, so it is the part the seed
# draws.

VERIFY_GRIDS = (
    ("ramanujan", {"n_max": 100}),
    ("strict", {"n_max": 24, "k_max": 5}),
    ("square", {"k_max": 3}),
    ("distinct", {"n_max": 12, "k_max": 4}),
    ("blocks", {"n_max": 11, "k_max": 2}),
    ("all", {"n_max": 15, "k_max": 3}),
)
VERIFY_SQUARE_POOLS = ((15, 21), (25, 27), (33, 35), (9, 11), (39, 45), (8, 12), (10, 14))


def build_verify(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for mode, grid in VERIFY_GRIDS:
        grid = dict(grid)
        if mode == "square":
            grid["n_list"] = [rng.choice(pool) for pool in VERIFY_SQUARE_POOLS]
        argv = ["verify", "--mode", mode, "--jobs", "1", "--format", "json"]
        if "n_max" in grid:
            argv += ["--n-max", str(grid["n_max"])]
        if "k_max" in grid:
            argv += ["--k-max", str(grid["k_max"])]
        if "n_list" in grid:
            argv += ["--n-list", ",".join(map(str, grid["n_list"]))]
        ops.append({"kind": "verify", "mode": mode, **grid, "argv": argv})
    return ops


def _multisets(values, k):
    return itertools.combinations_with_replacement(values, k)


def verify_rows(op: dict) -> dict[tuple, int]:
    """Every row the sweep must print, keyed as row_key keys a printed row,
    with its reference count."""
    mode = op["mode"]
    rows: dict[tuple, int] = {}

    def put(n, k, a, blocks, hist):
        for b in range(n):
            rows[(n, k, a, blocks, b)] = hist[b]

    if mode == "ramanujan":
        for n in range(1, op["n_max"] + 1):
            put(n, None, None, None, [ref.ramanujan(n, b) for b in range(n)])
    elif mode == "strict":
        for n in range(1, op["n_max"] + 1):
            for k in range(1, op["k_max"] + 1):
                base = ref.strict_hist(n, (1,) * k)
                for a in range(n):
                    hist = [0] * n
                    for s, c in enumerate(base):
                        hist[a * s % n] += c
                    put(n, k, (a,), None, hist)
    elif mode == "square":
        for n in op["n_list"]:
            for k in range(1, op["k_max"] + 1):
                for coeffs in _multisets((1, 2, 3, 5), k):
                    put(n, k, coeffs, None, ref.square_hist(n, coeffs))
    elif mode == "distinct":
        for n in range(1, op["n_max"] + 1):
            for k in range(1, op["k_max"] + 1):
                for coeffs in _multisets(range(n), k):
                    if _subset_hypothesis(n, coeffs):
                        put(n, k, coeffs, None, ref.distinct_hist(n, coeffs))
    elif mode == "blocks":
        size_max = min(op["k_max"], 3)
        pairs = [(s, c) for s in range(1, size_max + 1) for c in (1, 2, 3)]
        for n in range(1, op["n_max"] + 1):
            for t in (1, 2, 3):
                for blocks in _multisets(pairs, t):
                    label = ",".join(f"{s}:{c}" for s, c in blocks)
                    put(n, sum(s for s, _ in blocks), None, label, ref.blocks_hist(n, blocks))
    elif mode == "all":
        for n in range(1, op["n_max"] + 1):
            for k in range(1, op["k_max"] + 1):
                for coeffs in _multisets(range(n), k):
                    put(n, k, coeffs, None, ref.all_hist(n, coeffs))
    else:
        raise ValueError(f"no verify grid for mode {mode!r}")
    return rows


def row_key(rec: dict) -> tuple:
    a = rec.get("a")
    return (rec["n"], rec.get("k"), tuple(a) if a is not None else None, rec.get("blocks"), rec["b"])


# ----------------------------------------------------------------------
# Expected results, computed apart from the program and outside any timed
# region.


def expected(ops: list[dict]) -> list:
    out = []
    hist_cache: dict[tuple, list[int]] = {}

    def hist(key, fn):
        if key not in hist_cache:
            hist_cache[key] = fn()
        return hist_cache[key]

    for op in ops:
        kind = op["kind"]
        if kind == "square":
            n, coeffs = op["n"], tuple(op["coeffs"])
            out.append(hist(("square", n, coeffs), lambda: ref.square_hist(n, coeffs))[op["b"]])
        elif kind == "blocks":
            n, blocks = op["n"], tuple(map(tuple, op["blocks"]))
            out.append(hist(("blocks", n, blocks), lambda: ref.blocks_hist(n, blocks))[op["b"]])
        elif kind == "lehmer":
            n, coeffs = op["n"], tuple(op["coeffs"])
            out.append(hist(("all", n, coeffs), lambda: ref.all_hist(n, coeffs))[op["b"]])
        elif kind == "strict":
            out.append(ref.strict_equal_count(op["n"], op["k"], op["a"], op["b"]))
        elif kind == "distinct_eq":
            out.append(ref.distinct_equal_count(op["n"], op["k"], op["a"], op["b"]))
        elif kind == "distinct_gcd":
            out.append(ref.distinct_count(op["n"], op["coeffs"], op["b"]))
        elif kind == "verify":
            out.append(verify_rows(op))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return out


WORKLOADS = {
    "square-formula": (build_square, "lincong.formulas"),
    "ordered-formula": (build_ordered, "lincong.formulas"),
    "verify-sweep": (build_verify, "lincong.cli"),
}
