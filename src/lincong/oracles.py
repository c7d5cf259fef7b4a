"""Independent ground-truth counters.

Every histogram here is built by counting, one family of exact engines over
a packed layout: cyclic convolution of per-slot count vectors for all,
square and blocks (a block's vector is itself a packed product), and a
transfer DP over the values for strict order and distinct solutions.  The
unrelated methods that check them, brute force and a generating-function
ring, live in the test suite, so a bug here cannot mask a bug in the closed
forms.  Every histogram is budgeted up front: the number of tuples the
restriction admits (state_count) is charged before anything is built, so a
budget failure can never yield a wrong count.

The engines pack a length-n histogram into one int, entry r in bytes
[r*W, (r+1)*W) (Kronecker substitution).  W holds a bound on every entry
the engine ever holds, so no slot carries into the next, and each step is a
few big-int operations over n*W bytes, not a Python loop over n entries.
"""

from __future__ import annotations

import itertools
import math

from . import characters
from .errors import DomainError
from .model import BlockSpec, CongruenceSpec, OracleBudget

RESTRICTIONS = ("all", "square", "strict-order", "distinct", "blocks")


def _check_restriction(restriction: str) -> None:
    if restriction not in RESTRICTIONS:
        raise DomainError(f"unknown restriction {restriction!r}")


def state_count(spec: CongruenceSpec | BlockSpec, restriction: str = "all") -> int:
    """Number of tuples the restriction admits for this instance: the
    histogram's total, and what oracle_histogram charges to the budget."""
    _check_restriction(restriction)
    n = spec.n
    if restriction == "blocks":
        if not isinstance(spec, BlockSpec):
            raise DomainError("blocks restriction needs a BlockSpec")
        return math.prod(math.comb(n + ki - 1, ki) for ki in spec.sizes)
    if isinstance(spec, BlockSpec):
        raise DomainError(f"restriction {restriction!r} needs a CongruenceSpec")
    k = spec.k
    if restriction == "all":
        return n**k
    if restriction == "strict-order":
        return math.comb(n, k)
    if restriction == "distinct":
        return math.perm(n, k)
    return characters.square_profile(n).s ** k


def oracle_histogram(
    spec: CongruenceSpec | BlockSpec,
    restriction: str = "all",
    budget: OracleBudget | None = None,
) -> list[int]:
    """Counts for every target b at once (index b of the list), under the
    given restriction.  One histogram serves a whole sweep over b.

    all, square and blocks convolve one count vector per slot or block (a
    slot's vector counts its domain, [0, n) or the squares mod n, by
    residue; a block's vector comes from the packed product of _block_row),
    and strict order and distinct solutions run one transfer DP over the
    values.
    state_count is charged to ``budget`` before any of them starts.

    Residues are represented in [0, n).  The strict-order count compares
    those representatives, so it depends on the choice of [0, n)
    unless all coefficients are equal (a strictly ordered tuple is then a
    k-subset of Z_n, whose sum does not depend on representatives).  The
    other restrictions do not depend on the representatives."""
    _check_restriction(restriction)
    if budget is None:
        budget = OracleBudget()
    budget.charge(state_count(spec, restriction))
    n = spec.n
    if restriction == "blocks":
        return _convolve(n, [_block_row(n, size, a) for size, a in spec.blocks])
    if restriction in ("all", "square"):
        domain = _domain(n, restriction)
        return _convolve(n, [_count_vector(n, a, domain) for a in spec.coeffs])
    return _value_dp(n, spec.coeffs, ordered=restriction == "strict-order")


def oracle_count(
    spec: CongruenceSpec | BlockSpec,
    restriction: str = "all",
    budget: OracleBudget | None = None,
) -> int:
    """Exact count under the given restriction (one entry of the histogram)."""
    return oracle_histogram(spec, restriction, budget)[spec.b % spec.n]


def oracle_solutions(
    spec: CongruenceSpec,
    restriction: str = "square",
    budget: OracleBudget | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """The solutions themselves in lexicographic order, for witness listings:
    all of them, or the first ``limit`` (at least 0).  Supports the
    unordered restrictions (every slot draws from one domain); counting
    under the ordered restrictions goes through the histograms."""
    _check_restriction(restriction)
    if restriction not in ("all", "square"):
        raise DomainError(f"solution listing not supported for {restriction!r}")
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if budget is None:
        budget = OracleBudget()
    budget.charge(state_count(spec, restriction))
    tuples = itertools.product(_domain(spec.n, restriction), repeat=spec.k)
    hits = (t for t in tuples if sum(a * x for a, x in zip(spec.coeffs, t)) % spec.n == spec.b)
    return list(itertools.islice(hits, limit))


def _domain(n: int, restriction: str):
    """The residues one slot ranges over, in increasing order: all of
    [0, n), or the squares mod n."""
    if restriction == "square":
        return sorted(characters.square_profile(n).square_set)
    return range(n)


def _count_vector(n: int, a: int, domain) -> list[int]:
    """v[r] = number of x in ``domain`` with a*x = r (mod n)."""
    vec = [0] * n
    for x in domain:
        vec[a * x % n] += 1
    return vec


def _slot_bytes(bound: int) -> int:
    """Bytes per packed slot that hold every entry in [0, bound], bound >= 1."""
    return (bound.bit_length() + 7) // 8


def _unpack(h: int, n: int, width: int) -> list[int]:
    """The n entries of a packed histogram with ``width``-byte slots."""
    data = h.to_bytes(n * width, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width)]


def _convolve(n: int, vectors: list[list[int]]) -> list[int]:
    """Cyclic convolution of count vectors of length n: entry r counts the
    ways to pick one index per vector, weighted by its entries, with the
    indices summing to r mod n.

    One product of packed ints per vector convolves it in, and adding the
    slots above n - 1 back onto the low ones folds the product mod n.  The
    entries are nonnegative, so no coefficient, folded or not, exceeds the
    product of the vectors' sums, which sets the slot width."""
    width = _slot_bytes(math.prod(map(sum, vectors)))
    bits = 8 * width * n
    low = (1 << bits) - 1
    acc, *rest = (int.from_bytes(b"".join(c.to_bytes(width, "little") for c in vec), "little")
                  for vec in vectors)
    for vec in rest:
        prod = acc * vec
        acc = (prod & low) + (prod >> bits)
    return _unpack(acc, n, width)


def _value_dp(n: int, coeffs, ordered: bool) -> list[int]:
    """Histogram over tuples of pairwise distinct residues in [0, n), or of
    strictly decreasing ones (x1 > x2 > ... > xk) when ``ordered``, by a
    transfer DP over the values w = n-1, ..., 0.

    A state is the nonempty bit mask of the positions that already hold a
    value above w, with the packed histogram of a1*x1+...+ak*xk over those
    positions.  At each w one free position of each state takes w; the
    states are read from a snapshot, so no tuple takes w twice.  Each
    one-position state 1 << i starts from the point mass: at each w it
    gains a single 1 at a_i*w mod n.  When ordered, the free position is
    the first one, so only position 0 is seeded and only the k prefix masks
    occur.  The moves of each such mask are listed once per call.

    A transfer by t rotates the histogram by t slots and adds it: one shift
    and one add over n slots, O(k*n) of them when ordered and O(k*2^k*n)
    otherwise.  A state with j positions counts j-subsets (ordered) or
    j-arrangements of the values above w, so its entries are at most
    C(n, j) or P(n, j), and the slot width holds the largest over j <= k.
    C(n, j) peaks at j = n // 2, before k once k > n/2, so the final total
    alone is too small a bound."""
    k = len(coeffs)
    if k > n:
        return [0] * n
    width = _slot_bytes(math.comb(n, min(k, n // 2)) if ordered else math.perm(n, k))
    bits = 8 * width * n
    low = (1 << bits) - 1
    reached = [(1 << j) - 1 for j in range(1, k + 1)] if ordered else range(1, 1 << k)
    moves = {m: [(i, m | 1 << i) for i in range(k) if not m >> i & 1][:1 if ordered else k]
             for m in reached}
    states: dict[int, int] = {}
    for w in range(n - 1, -1, -1):
        shifts = [a * w % n * 8 * width for a in coeffs]
        for mask, hist in list(states.items()):
            for i, grown in moves[mask]:
                t = shifts[i]
                states[grown] = states.get(grown, 0) + (((hist << t) & low) | (hist >> (bits - t)))
        # seeded after the transfers, so no other position joins it at w
        for i in range(1 if ordered else k):
            states[1 << i] = states.get(1 << i, 0) + (1 << shifts[i])
    return _unpack(states[(1 << k) - 1], n, width)


def _block_row(n: int, size: int, a: int) -> list[int]:
    """v[r] = number of weakly decreasing x1 >= ... >= x_size in [0, n) with
    a*(x1+...+x_size) = r (mod n): one block's count vector.

    The coefficient of z^size in the product over x in [0, n) of
    1/(1 - z q^(a*x)), in packed form: rows[i] holds the z^i coefficient,
    and each factor adds row i-1, rotated by a*x slots, onto row i for
    ascending i, so a value may repeat.  After the first x + 1 factors row i
    totals C(x + i, i) <= C(n + size - 1, size), which sets the slot width."""
    width = _slot_bytes(math.comb(n + size - 1, size))
    bits = 8 * width * n
    low = (1 << bits) - 1
    rows = [1] + [0] * size
    for x in range(n):
        t = a * x % n * 8 * width
        for i in range(1, size + 1):
            h = rows[i - 1]
            rows[i] += ((h << t) & low) | (h >> (bits - t))
    return _unpack(rows[size], n, width)
