"""Independent ground-truth counters.

Every histogram here is built by counting, with two exact engines and a
convolution over one packed layout: cyclic convolution of per-slot or
per-block count vectors for all, square and blocks; a weak-chain pass over
the values for a weakly ordered block and for strict order, which is a weak
chain over n - k + 1 values after the shift x_j -> x_j - (k - j); and a
transfer DP over the values for distinct solutions.  The unrelated methods
that check them, brute force and a generating-function ring, live in the
test suite, so a bug here cannot mask a bug in the closed forms.  Every
histogram is budgeted up front: the number of tuples the restriction admits
(state_count) is charged before anything is built, so a budget failure can
never yield a wrong count.

The engines pack a length-n histogram into one int, entry r in bytes
[r*W, (r+1)*W) (Kronecker substitution), and each step is a few big-int
operations over n*W bytes, not a Python loop over n entries.  Every entry
an engine ever holds counts part of the tuples the histogram counts, so the
charged total bounds them all: W is its byte length, set once per histogram,
and no slot carries into the next.

A grid's cases share pieces, so each is memoized (at most _PIECES entries)
under a key that fixes its value, (n, W) included: a slot's count vector,
the fold of each coefficient prefix (a case convolves its prefix's fold
with one vector), a chain (a block's row), _value_dp's move table per k,
and the sums of strictly ordered k-tuples, which equal-coefficient strict
order pushes forward to each a.  The charge still comes first: no cache is
read before state_count is charged, so a refused charge returns nothing.

Distinct solutions run one transfer DP per unit orbit of the coefficients.
For a unit v, a1*x1 + ... + ak*xk = t exactly when (v*a1)*x1 + ... +
(v*ak)*xk = v*t, and the restriction (pairwise distinct x) acts on x alone,
with no order among the positions, so a and the sorted v*a mod n have the
same histogram up to t -> v*t.  That relabelling is the identity: by
inclusion-exclusion over the set partitions P of the positions, the count
at t is a sum of mu(P)*[g | t]*g*n^(|P|-1), g = gcd(n, P's block sums), so
it reads t only through gcd(t, n).  _orbit_key picks one sorted tuple per
orbit, and its DP is memoized on its own (at most _ORBITS entries, each of
at most _ORBIT_BYTES): a grid meets an orbit again anywhere along its walk.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import characters
from .errors import DomainError
from .model import BlockSpec, CongruenceSpec, OracleBudget

RESTRICTIONS = ("all", "square", "strict-order", "distinct", "blocks")
# Entries each memoized piece keeps: a grid meets its pieces in order, so
# one is read again soon or not at all.
_PIECES = 64
# Orbit DPs kept: room for every orbit a grid meets (990 at n = 31, k = 4).
# A DP of more than _ORBIT_BYTES packed bytes (n*W) is built and not kept,
# so the cache holds at most _ORBITS * _ORBIT_BYTES = 16 MiB.
_ORBITS = 1024
_ORBIT_BYTES = 1 << 14


def _check_restriction(restriction: str) -> None:
    if restriction not in RESTRICTIONS:
        raise DomainError(f"unknown restriction {restriction!r}")


def state_count(spec: CongruenceSpec | BlockSpec, restriction: str = "all") -> int:
    """Number of tuples the restriction admits for this instance: the
    histogram's total, and what oracle_histogram charges to the budget."""
    return _admitted(spec, restriction)[0]


def _admitted(spec: CongruenceSpec | BlockSpec, restriction: str):
    """(state_count, the residues one slot ranges over), the latter for
    all and square only (None otherwise), so the squares mod n are listed
    once per histogram."""
    _check_restriction(restriction)
    n = spec.n
    if restriction == "blocks":
        if not isinstance(spec, BlockSpec):
            raise DomainError("blocks restriction needs a BlockSpec")
        return math.prod(math.comb(n + ki - 1, ki) for ki in spec.sizes), None
    if isinstance(spec, BlockSpec):
        raise DomainError(f"restriction {restriction!r} needs a CongruenceSpec")
    k = spec.k
    if restriction == "strict-order":
        return math.comb(n, k), None
    if restriction == "distinct":
        return math.perm(n, k), None
    domain = _domain(n, restriction)
    return len(domain) ** k, domain


def oracle_histogram(
    spec: CongruenceSpec | BlockSpec,
    restriction: str = "all",
    budget: OracleBudget | None = None,
) -> list[int]:
    """Counts for every target b at once (index b of the list), under the
    given restriction.  One histogram serves a whole sweep over b.

    all, square and blocks convolve one count vector per slot or block (a
    slot's vector counts its domain, [0, n) or the squares mod n, by
    residue; a block's vector is the weak chain of its size over [0, n)).
    Strict order is one weak chain (for equal coefficients, the chain at
    a = 1 pushed forward to a) and distinct solutions one transfer DP over
    the values, run once per unit orbit of the coefficients, whose tuples
    share one histogram (see the module docstring).  state_count is
    charged to ``budget`` before any of them starts, and that total sets
    the one slot width they all use; a total of 0 (more variables than
    residues) is the zero histogram.

    Residues are represented in [0, n).  The strict-order count compares
    those representatives, so it depends on the choice of [0, n)
    unless all coefficients are equal (a strictly ordered tuple is then a
    k-subset of Z_n, whose sum does not depend on representatives).  The
    other restrictions do not depend on the representatives."""
    if budget is None:
        budget = OracleBudget()
    total, domain = _admitted(spec, restriction)
    budget.charge(total)
    n = spec.n
    if total == 0:
        return [0] * n
    width = (total.bit_length() + 7) // 8
    if restriction == "blocks":
        hist = _convolve(n, width, [_chain(n, width, (a,) * size, n) for size, a in spec.blocks])
    elif restriction in ("all", "square"):
        for i in range(1, spec.k + 1):  # shortest prefix first, so no fold recurses twice
            hist = _fold(n, width, spec.coeffs[:i], domain)
    elif restriction == "distinct":
        build = _orbit_dp if n * width <= _ORBIT_BYTES else _value_dp
        hist = build(n, width, _orbit_key(n, spec.coeffs))
    elif len(set(spec.coeffs)) == 1:
        # a*(x1+...+xk) is a times the sum at a = 1: push that histogram forward
        hist = [0] * n
        for s, c in enumerate(_strict_sums(n, width, spec.k)):
            hist[spec.coeffs[0] * s % n] += c
        return hist
    else:
        # x_j = y_j + (k - j) maps weakly decreasing y over [0, n - k + 1)
        # onto strictly decreasing x over [0, n)
        k = spec.k
        offset = sum(a * (k - j) for j, a in enumerate(spec.coeffs, 1))
        hist = _chain(n, width, spec.coeffs, n - k + 1, offset)
    return _unpack(n, width, hist)


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
    under the ordered restrictions goes through the histograms.  state_count
    is charged first.  The walk fills the positions left to right, entering a
    value only when the packed histogram of the later positions reaches the
    rest of the target, so every value entered leads to a solution."""
    _check_restriction(restriction)
    if restriction not in ("all", "square"):
        raise DomainError(f"solution listing not supported for {restriction!r}")
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if budget is None:
        budget = OracleBudget()
    total, domain = _admitted(spec, restriction)
    budget.charge(total)
    n, width = spec.n, (total.bit_length() + 7) // 8
    after = [1]  # after[i]: the packed histogram of the positions after i, as n*W bytes
    for a in spec.coeffs[:0:-1]:
        after.append(_convolve(n, width, [after[-1], _count_vector(n, width, a, domain)]))
    after = [v.to_bytes(n * width, "little") for v in reversed(after)]
    hits, stack = [], [((), spec.b)]  # (prefix, the rest of the target) to enter, last first
    while stack and (limit is None or len(hits) < limit):
        prefix, rest = stack.pop()
        i = len(prefix)
        if i == spec.k:
            hits.append(prefix)
            continue
        rests = ((x, (rest - spec.coeffs[i] * x) % n) for x in reversed(domain))
        stack += [(prefix + (x,), r) for x, r in rests if any(after[i][r * width:(r + 1) * width])]
    return hits


def _domain(n: int, restriction: str):
    """The residues one slot ranges over, in increasing order: all of
    [0, n), or the squares mod n."""
    if restriction == "square":
        return characters.squares(n)
    return range(n)


def _unpack(n: int, width: int, packed: int) -> list[int]:
    """The n entries of a packed histogram, W = width bytes each."""
    data = packed.to_bytes(n * width, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width)]


@lru_cache(maxsize=_PIECES)
def _fold(n: int, width: int, coeffs: tuple[int, ...], domain) -> int:
    """Packed histogram of a1*x1 + ... + ak*xk over domain^k: the fold of
    the coefficients before the last, convolved with the last one's vector."""
    vec = _count_vector(n, width, coeffs[-1], domain)
    if len(coeffs) == 1:
        return vec
    return _convolve(n, width, [_fold(n, width, coeffs[:-1], domain), vec])


@lru_cache(maxsize=_PIECES)
def _strict_sums(n: int, width: int, k: int) -> tuple[int, ...]:
    """Unpacked histogram of x1 + ... + xk over strictly decreasing x in [0, n):
    oracle_histogram's strict chain at coefficients (1,)*k."""
    return tuple(_unpack(n, width, _chain(n, width, (1,) * k, n - k + 1, k * (k - 1) // 2)))


@lru_cache(maxsize=_PIECES)
def _count_vector(n: int, width: int, a: int, domain) -> int:
    """Packed v[r] = number of x in ``domain`` with a*x = r (mod n)."""
    vec = [0] * n
    for x in domain:
        vec[a * x % n] += 1
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in vec), "little")


def _convolve(n: int, width: int, vectors: list[int]) -> int:
    """Cyclic convolution of packed count vectors of length n: entry r
    counts the ways to pick one index per vector, weighted by its entries,
    with the indices summing to r mod n.

    One product of packed ints per vector convolves it in, and adding the
    slots above n - 1 back onto the low ones folds the product mod n."""
    bits = 8 * width * n
    low = (1 << bits) - 1
    acc, *rest = vectors
    for vec in rest:
        prod = acc * vec
        acc = (prod & low) + (prod >> bits)
    return acc


def _orbit_key(n: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """One sorted unit multiple of the coefficients a, the same for every
    unit multiple u*a: the least sorted v*a mod n over the inverses v of
    a's unit entries.  (u*a_j)^-1 * u*a = a_j^-1 * a, so u*a offers the
    same tuples, and the least one is the least sorted unit multiple of a
    (its first nonzero entry is 1).  O(k^2 log k), where a minimum over
    all units would cost O(phi(n) k log k).  A tuple with no unit entry is
    keyed on itself, sorted."""
    units = {pow(a, -1, n) for a in coeffs if math.gcd(a, n) == 1} or {1}
    return min(tuple(sorted(v * a % n for a in coeffs)) for v in units)


@lru_cache(maxsize=_ORBITS)
def _orbit_dp(n: int, width: int, coeffs: tuple[int, ...]) -> int:
    """_value_dp at an orbit key (n*W <= _ORBIT_BYTES), memoized."""
    return _value_dp(n, width, coeffs)


def _value_dp(n: int, width: int, coeffs) -> int:
    """Packed histogram over tuples of pairwise distinct residues in [0, n),
    k <= n of them, by a transfer DP over the values w = n-1, ..., 0.

    A state is the nonempty bit mask of the positions that already hold a
    value above w, with the packed histogram of a1*x1+...+ak*xk over those
    positions, in a list indexed by mask and updated in place.  At each w
    one free position of each state takes w, larger states first, so a mask
    that gains a position at w has had its turn; the one-position states
    1 << i are seeded after the transfers, each with a single 1 at a_i*w
    mod n.  A state of s positions that takes w still needs k - s - 1 of
    the w values below it, so only s >= k - w - 1 transfers, a seed only
    while w >= k - 1, and a state of s > n - 1 - w positions is still empty.
    The rest are dead (22950 of 28060 transfers at n = k = 10).

    _moves builds the masks by size, each with its moves, once per k.

    A transfer by t rotates the histogram by t slots and adds it: one shift
    and one add over n slots, at most k*2^(k-1) per value.  A state with j
    positions counts j-arrangements of the values above w, at most
    P(n, j) <= P(n, k) of them.

    At k = 1 every tuple is distinct, so the histogram is the single slot's
    count vector over [0, n): the DP would add n seeds into n*W bytes."""
    k = len(coeffs)
    if k == 1:
        return _count_vector(n, width, coeffs[0], range(n))
    bits = 8 * width * n
    low = (1 << bits) - 1
    by_size = _moves(k)
    states = [0] * (1 << k)
    for w in range(n - 1, -1, -1):
        shifts = [a * w % n * 8 * width for a in coeffs]
        for s in range(min(k - 1, n - 1 - w), max(0, k - w - 2), -1):
            for mask, moves in by_size[s]:
                hist = states[mask]
                for i, grown in moves:
                    t = shifts[i]
                    states[grown] += ((hist << t) & low) | (hist >> (bits - t))
        if w >= k - 1:
            for i, t in enumerate(shifts):
                states[1 << i] += 1 << t
    return states[-1]


@lru_cache(maxsize=8)  # a verify grid goes through k = 1..k_max at every n
def _moves(k: int) -> tuple:
    """by_size[s]: the masks of s < k positions, each with its moves
    (i, the mask with position i added), one per free position i."""
    by_size = [[] for _ in range(k)]
    for mask in range(1, (1 << k) - 1):
        moves = tuple((i, mask | 1 << i) for i in range(k) if not mask >> i & 1)
        by_size[k - len(moves)].append((mask, moves))
    return tuple(map(tuple, by_size))


@lru_cache(maxsize=_PIECES)
def _chain(n: int, width: int, coeffs: tuple[int, ...], values: int, offset: int = 0) -> int:
    """Packed histogram of a1*x1 + ... + ak*xk + offset (mod n) over the
    weakly decreasing x1 >= ... >= xk in [0, values), values >= 1.

    The coefficient of z^k in the product over x in [0, values) of
    1/(1 - z q^x), with the i-th smallest value weighted by a_(k-i+1):
    rows[i] holds the z^i coefficient, and each x adds row i-1, rotated by
    a_(k-i+1)*x slots, onto row i for ascending i, so a value may repeat.
    k*values transfers, one shift, one mask, one or and one add each.  Row i
    counts weakly ordered i-tuples, at most C(values + i - 1, i), which
    grows with i up to the final C(values + k - 1, k)."""
    k = len(coeffs)
    bits = 8 * width * n
    low = (1 << bits) - 1
    rising = coeffs[::-1]
    rows = [1 << offset % n * 8 * width] + [0] * k
    for x in range(values):
        for i, a in enumerate(rising, 1):
            t = a * x % n * 8 * width
            h = rows[i - 1]
            rows[i] += ((h << t) & low) | (h >> (bits - t))
    return rows[k]
